(** Crash-safe whole-file writes for everything [serve] leaves on disk
    (checkpoints, flight-recorder traces, load profiles). *)

val write : path:string -> string -> (int, string) result
(** Write [data] to [path ^ ".tmp"] (same directory, so the rename
    cannot cross a filesystem), fsync it, then rename it over [path]:
    a reader sees the old file or the new one, never a torn write.
    [Ok n] is the number of bytes written; any failure (unwritable
    directory, full disk, failed close) is an [Error] naming the path,
    and the temporary file is removed. *)
