let write ~path data =
  let tmp = path ^ ".tmp" in
  let len = String.length data in
  let write_all fd =
    let rec go off =
      if off < len then go (off + Unix.write_substring fd data off (len - off))
    in
    go 0;
    Unix.fsync fd
  in
  match
    let fd = Unix.openfile tmp Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o666 in
    (match write_all fd with
    | () -> Unix.close fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    Unix.rename tmp path
  with
  | () -> Ok len
  | exception Unix.Unix_error (e, fn, _) ->
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e))
