type 'a system = {
  init : 'a;
  n_ids : int;
  step : 'a -> int -> 'a list;
  final : 'a -> bool;
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
}

type 'a exploration = {
  system : 'a system;
  states : 'a array;
  pred : (int * int) array;
  succ : (int * int) list array;
  complete : bool;
}

let pair_hash ha hb (a, b) = (ha a * 1_000_003) + hb b
let pair_equal ea eb (a, b) (a', b') = ea a a' && eb b b'

(* Fibonacci hashing: the top [bits] bits of [h * 2^62/phi], so every
   slot bit depends on every low bit of [h]. *)
let slot h bits = ((h * 0x4F1BBCDCBFA53E0B) land max_int) lsr (62 - bits)

let explore ?(budget = 200_000) sys =
  (* The index is an open-addressing table of state indices, keyed by
     the state itself through the system's [hash] and [equal]: one
     hash per successor, stored beside the state so that probes and
     rehashes compare ints before states, and no key is allocated. *)
  let states = ref (Array.make 1024 sys.init) in
  let hashes = ref (Array.make 1024 0) in
  let parent = ref (Array.make 1024 (-1)) in
  let via = ref (Array.make 1024 (-1)) in
  let succ = ref (Array.make 1024 []) in
  let bits = ref 11 in
  let slots = ref (Array.make (1 lsl !bits) (-1)) in
  let n = ref 0 in
  let complete = ref true in
  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let rec free_slot s i =
    if s.(i) < 0 then i else free_slot s ((i + 1) land (Array.length s - 1))
  in
  let rehash () =
    incr bits;
    let s = Array.make (1 lsl !bits) (-1) in
    for k = 0 to !n - 1 do
      s.(free_slot s (slot !hashes.(k) !bits)) <- k
    done;
    slots := s
  in
  (* The index of [st], adding it (index [!n] before the call) when it
     is new; [-1] when it is new and the budget is spent. *)
  let find_or_add st =
    let h = sys.hash st in
    let s = !slots in
    let mask = Array.length s - 1 in
    let i = ref (slot h !bits) in
    while
      s.(!i) >= 0
      && not (!hashes.(s.(!i)) = h && sys.equal !states.(s.(!i)) st)
    do
      i := (!i + 1) land mask
    done;
    if s.(!i) >= 0 then s.(!i)
    else if !n >= budget then begin
      complete := false;
      -1
    end
    else begin
      let k = !n in
      if k >= Array.length !states then begin
        states := grow !states sys.init;
        hashes := grow !hashes 0;
        parent := grow !parent (-1);
        via := grow !via (-1);
        succ := grow !succ []
      end;
      incr n;
      !states.(k) <- st;
      !hashes.(k) <- h;
      s.(!i) <- k;
      if 2 * !n > Array.length s then rehash ();
      k
    end
  in
  ignore (find_or_add sys.init);
  let q = Queue.create () in
  Queue.add 0 q;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let st = !states.(i) in
    if not (sys.final st) then
      for id = 0 to sys.n_ids - 1 do
        List.iter
          (fun st' ->
            let fresh = !n in
            let j = find_or_add st' in
            if j >= 0 then begin
              !succ.(i) <- (id, j) :: !succ.(i);
              if j = fresh then begin
                !parent.(j) <- i;
                !via.(j) <- id;
                Queue.add j q
              end
            end)
          (sys.step st id)
      done
  done;
  let n = !n in
  {
    system = sys;
    states = Array.sub !states 0 n;
    pred = Array.init n (fun i -> (!parent.(i), !via.(i)));
    succ = Array.sub !succ 0 n;
    complete = !complete;
  }

let find ex p =
  let n = Array.length ex.states in
  let rec loop i =
    if i >= n then None else if p ex.states.(i) then Some i else loop (i + 1)
  in
  loop 0

let path ex target =
  let rec up i acc =
    match ex.pred.(i) with
    | -1, _ -> acc
    | parent, id -> up parent ((id, ex.states.(i)) :: acc)
  in
  up target []

let co_reachable ex p =
  let n = Array.length ex.states in
  let mark = Array.make n false in
  let rev = Array.make n [] in
  Array.iteri
    (fun i edges ->
      List.iter (fun (_, j) -> if j <> i then rev.(j) <- i :: rev.(j)) edges)
    ex.succ;
  let q = Queue.create () in
  for i = 0 to n - 1 do
    if p ex.states.(i) then begin
      mark.(i) <- true;
      Queue.add i q
    end
  done;
  while not (Queue.is_empty q) do
    let j = Queue.pop q in
    List.iter
      (fun i ->
        if not mark.(i) then begin
          mark.(i) <- true;
          Queue.add i q
        end)
      rev.(j)
  done;
  mark
