(* The window lives in [gids.(off) .. gids.(off + len - 1)], its times
   at the same indices of [times]; [pop_before] advances [off] instead
   of shifting, and the grow path compacts. *)
type t = {
  mutable gids : int array;
  mutable times : int array;
  mutable off : int;
  mutable len : int;
}

let create () = { gids = [||]; times = [||]; off = 0; len = 0 }
let length t = t.len

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Journal." ^ name ^ ": out of window")

let gid t i =
  check t i "gid";
  t.gids.(t.off + i)

let time t i =
  check t i "time";
  t.times.(t.off + i)

(* Make room for one more event at the physical end, compacting the
   dead prefix and doubling as needed. *)
let grow t =
  if t.off + t.len >= Array.length t.gids then begin
    let cap = max 16 (max (2 * Array.length t.gids) (t.len + 1)) in
    let gids = Array.make cap 0 and times = Array.make cap 0 in
    Array.blit t.gids t.off gids 0 t.len;
    Array.blit t.times t.off times 0 t.len;
    t.gids <- gids;
    t.times <- times;
    t.off <- 0
  end

let append t ~gid ~time =
  grow t;
  t.gids.(t.off + t.len) <- gid;
  t.times.(t.off + t.len) <- time;
  t.len <- t.len + 1

let insertion_point t ~time =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.times.(t.off + mid) > time then hi := mid else lo := mid + 1
  done;
  !lo

let insert t ~at ~gid ~time =
  if at < 0 || at > t.len then invalid_arg "Journal.insert: out of window";
  grow t;
  let p = t.off + at in
  Array.blit t.gids p t.gids (p + 1) (t.len - at);
  Array.blit t.times p t.times (p + 1) (t.len - at);
  t.gids.(p) <- gid;
  t.times.(p) <- time;
  t.len <- t.len + 1

let pop_before t ~time f =
  while t.len > 0 && t.times.(t.off) < time do
    let g = t.gids.(t.off) and tm = t.times.(t.off) in
    t.off <- t.off + 1;
    t.len <- t.len - 1;
    f g tm
  done
