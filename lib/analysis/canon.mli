(** Canonical forms of patterns, for analyses that depend on structure
    only.

    What a loose-ordering monitor does depends on its pattern's
    fragments, ranges, deadline and on the {e order} of its names; the
    names themselves are just alphabet symbols.  [make p] renames every
    name of [p] to its rank in [p]'s sorted alphabet, written at a fixed
    width ([n000000], [n000001], ...), so two patterns that differ by
    an order-preserving renaming — the renamed copies of one suite, for
    instance — have equal canonical forms.  An analysis run on the
    canonical form and renamed back with {!name} and {!trace} gives what
    the same analysis gives on [p].

    {b Why rank order, not first occurrence.}  The machines the
    analyses explore number their event ids in {!Name.compare} order
    ({!Loseq_core.Compiled}).  Because canonical order equals concrete
    order, ids, BFS discovery order, the order of racy pairs, which
    name of a race is [a] and which is [b], and every witness trace are
    the same on both sides, so renamed-back results are byte-identical
    to direct ones.  Numbering names by first occurrence would identify
    more patterns (the same shape under any renaming), but it would
    permute ids and so change which shortest witness BFS finds first. *)

open Loseq_core

type t

val make : Pattern.t -> t
(** The canonical form of a pattern.  Runs {!Wellformed.check_exn}
    first, so an ill-formed pattern raises
    {!Loseq_core.Wellformed.Ill_formed} carrying the pattern as given. *)

val pattern : t -> Pattern.t
(** The canonical pattern: structurally equal for any two patterns one
    order-preserving renaming apart. *)

val concrete : t -> Pattern.t
(** The pattern [make] was given. *)

val name : t -> Name.t -> Name.t
(** A canonical name back to the concrete name it stands for.  Raises
    [Not_found] on a name outside the canonical alphabet. *)

val trace : t -> Trace.t -> Trace.t
(** {!name} on every event; timestamps are kept. *)
