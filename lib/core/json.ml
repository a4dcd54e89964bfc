type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- emission --------------------------------------------------------- *)

(* Runs of bytes that need no escape go in with one [add_substring];
   the escaped set is ['"'], ['\\'] and the bytes below 0x20. *)
let escape buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [min_int] has no positive counterpart to write the digits of. *)
let add_int buf i =
  if i = min_int then Buffer.add_string buf (string_of_int i)
  else if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end
  else add_digits buf i

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let rec pp ppf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v ->
      Format.pp_print_string ppf (to_string v)
  | List [] -> Format.pp_print_string ppf "[]"
  | List items ->
      Format.fprintf ppf "[@;<0 2>@[<v>%a@]@,]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           pp)
        items
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
      let field ppf (k, v) =
        Format.fprintf ppf "@[<hv 2>%s: %a@]"
          (let b = Buffer.create 16 in
           escape b k;
           Buffer.contents b)
          pp v
      in
      Format.fprintf ppf "{@;<0 2>@[<v>%a@]@,}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           field)
        fields

(* ---- parsing ---------------------------------------------------------- *)

exception Parse_error of int * string

let of_string source =
  let n = String.length source in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some source.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub source !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let s = String.sub source !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> fail "bad \\u escape"
  in
  let utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              utf8 buf (hex4 ())
          | Some c ->
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | _ -> fail "bad escape");
              advance ()
          | None -> fail "bad escape");
          loop ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub source start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "at offset %d: %s" p msg)

(* ---- accessors -------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_list_opt = function List items -> Some items | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
