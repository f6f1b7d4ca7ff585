(** Timeline export: Chrome [chrome://tracing] / Perfetto-compatible JSON.

    Renders a decoupled run — per-unit occupancy (every retired channel
    event of the AGU and CU as a 1-cycle slice, the paper's Figure 2 view)
    plus channel-depth counter tracks (request/value/store-value FIFOs and
    LSQ occupancy) — from the timelines a [Machine.simulate ~collect:true]
    run recorded. One simulated cycle maps to one microsecond of trace
    time; each invocation becomes its own process, so multi-invocation
    kernels (BFS levels, relaxation rounds) stack as parallel tracks.

    The output is deterministic: same kernel, architecture and config give
    byte-identical JSON, independent of the runner's domain count — pinned
    by the golden test in [test/test_stats.ml]. *)

val export : Buffer.t -> kernel:string -> Machine.result -> unit
(** Append the JSON document for [result]'s timelines (empty trace when
    the run was not collected) to the buffer. *)

val to_string : kernel:string -> Machine.result -> string

val write_file : path:string -> kernel:string -> Machine.result -> unit
(** [path] ["-"] writes to stdout. *)

val escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped ([\n] as such, the rest as [\u00XX]). The one
    escaper of every JSON document the repo writes. *)
