(** Shared command-line documentation fragments.

    The [check]/[suite]/[soc]/[trace]/[serve] subcommands all take
    [--backend] and the serve command additionally documents its
    hosting modes; the strings live here — in one place the test suite
    can pin — so a new backend or serve mode cannot be documented on
    one command and silently missed on another. *)

val backend_names : string list
(** Every selectable backend, in the order the CLI lists them:
    [["direct"; "compiled"; "flat"; "psl"]]. *)

val backend_doc : string
(** The [--backend] option description shared by [check], [suite],
    [soc], [trace] and [serve].  Mentions each of {!backend_names},
    that [compiled] names the [flat] engine on every command, and the
    defaults: [compiled] for the batch commands; for [serve], [flat]
    when buffered, and always [flat] under [--ooo], which refuses
    [--backend]. *)

val serve_modes_doc : string
(** The serve man-page paragraph enumerating the hosting modes: the
    default buffered (watermark reorder) path and the [--ooo]
    speculative path, with each mode's backend.  Mentions
    [--ooo], [--lateness] and the [settled]/[speculative] NDJSON
    markers. *)

val ooo_doc : string
(** The [--ooo] flag description. *)
