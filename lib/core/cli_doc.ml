let backend_names = [ "direct"; "compiled"; "flat"; "psl" ]

let backend_doc =
  "Monitor backend: $(b,direct) (the paper's structural Drct \
   construction, one monitor per pattern, richest diagnostics), \
   $(b,compiled) (the default of $(b,check), $(b,suite), $(b,soc) \
   and $(b,trace); another name for $(b,flat)), $(b,flat) (the suite \
   engine: the whole suite compiled into one table engine, every \
   checker's state packed into one array, one shared dispatch — the \
   fastest hosted path and the only hosting $(b,serve) can \
   checkpoint), or $(b,psl) (formula progression over the Section-5 \
   PSL translation; rejects wide ranges and checks timed patterns \
   without their quantitative deadline). Without $(b,--backend), \
   $(b,serve) hosts buffered sessions on $(b,flat); $(b,--ooo) \
   sessions always run on $(b,flat) and refuse $(b,--backend)."

let serve_modes_doc =
  "Two hosting modes. The default buffered mode parks events in a \
   watermark reorder buffer for up to $(b,--lateness) ticks and \
   delivers them in timestamp order — verdicts are exact but lag the \
   stream by K; it runs on the $(b,flat) backend unless \
   $(b,--backend) says otherwise. With $(b,--ooo) the speculative \
   engine (always on the $(b,flat) backend) applies every \
   event the moment it arrives, reports three-valued in-flight \
   verdicts, and repairs by rollback-and-replay when a late event \
   lands; violation records carry $(b,speculative) markers, \
   $(b,retracted) records withdraw disproved ones, and $(b,settled) \
   records mark verdicts the watermark has made definitive."

let ooo_doc =
  "Speculative out-of-order mode: evaluate events immediately on \
   arrival instead of buffering, roll back and replay when a late \
   event (within $(b,--lateness) ticks) lands, and settle verdicts as \
   the watermark passes them. Commute/lateness certificates from the \
   analysis layer let provably harmless late events commit in place \
   with no rollback. Incompatible with --checkpoint/--resume."
