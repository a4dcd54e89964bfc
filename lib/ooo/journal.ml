open Loseq_core

(* The window lives in [buf.(off) .. buf.(off + len - 1)], its gids at
   the same indices of [gids]; [pop_before] advances [off] instead of
   shifting, and the grow path compacts. *)
type t = {
  mutable buf : Trace.event array;
  mutable gids : int array;
  mutable off : int;
  mutable len : int;
}

let create () = { buf = [||]; gids = [||]; off = 0; len = 0 }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Journal.get: out of window";
  t.buf.(t.off + i)

(* Make room for one more event at the physical end, compacting the
   dead prefix and doubling as needed.  [fill] seeds fresh cells. *)
let grow t (fill : Trace.event) =
  if t.off + t.len >= Array.length t.buf then begin
    let cap = max 16 (max (2 * Array.length t.buf) (t.len + 1)) in
    let buf = Array.make cap fill and gids = Array.make cap 0 in
    Array.blit t.buf t.off buf 0 t.len;
    Array.blit t.gids t.off gids 0 t.len;
    t.buf <- buf;
    t.gids <- gids;
    t.off <- 0
  end

let append t ~gid e =
  grow t e;
  t.buf.(t.off + t.len) <- e;
  t.gids.(t.off + t.len) <- gid;
  t.len <- t.len + 1

let insertion_point t ~time =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if (get t mid).Trace.time > time then hi := mid else lo := mid + 1
  done;
  !lo

let insert t ~at ~gid e =
  if at < 0 || at > t.len then invalid_arg "Journal.insert: out of window";
  grow t e;
  let p = t.off + at in
  Array.blit t.buf p t.buf (p + 1) (t.len - at);
  Array.blit t.gids p t.gids (p + 1) (t.len - at);
  t.buf.(p) <- e;
  t.gids.(p) <- gid;
  t.len <- t.len + 1

let pop_before t ~time f =
  while t.len > 0 && t.buf.(t.off).Trace.time < time do
    let e = t.buf.(t.off) and g = t.gids.(t.off) in
    t.off <- t.off + 1;
    t.len <- t.len - 1;
    f g e
  done
