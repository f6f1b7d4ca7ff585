(* Trace-driven re-timing (see retime.mli).

   The seam this module exploits is structural: Exec.run_lowered takes no
   Config.t, and Timing.oracle_filter is likewise config-independent, so
   everything up to and including the recorded traces is identical across
   every point of a configuration sweep. [prepare] does that half once;
   [simulate] then replays the stored runs plus the (cheap,
   config-dependent) area model.

   Equivalence with Machine.simulate is by delegation: both drivers run
   Machine's steps (compile, execute, replay); Machine streams them one
   invocation at a time, this module stores the executed runs in
   between. *)

open Dae_ir

exception Check_failed = Machine.Check_failed

type plan = { pl_compiled : Machine.compiled; pl_digest : string }

let plan ?partition (arch : Machine.arch) (f : Func.t) : plan =
  let c = Machine.compile ?partition arch f in
  let digest =
    match c.Machine.c_lowered with
    | None ->
      (* the printed IR is the canonical byte form of a function *)
      "STA:" ^ Digest.to_hex (Digest.string (Fmt.str "%a" Printer.pp_func f))
    | Some l ->
      (* SPEC and ORACLE share a lowering (mode Spec); the arch prefix
         keeps their identities distinct — ORACLE filters its traces. The
         partition is baked into the lowered unit programs, so the
         digest already distinguishes N-way plans. *)
      Machine.arch_name arch ^ ":"
      ^ Digest.to_hex (Lower.digest l.Machine.l_program)
  in
  { pl_compiled = c; pl_digest = digest }

let plan_digest p = p.pl_digest

let pipeline p =
  Option.map (fun l -> l.Machine.l_pipeline) p.pl_compiled.Machine.c_lowered

type prepared = {
  pr_plan : plan;
  pr_tally : Machine.tally; (* final memory, kill/commit counts *)
  pr_runs : Machine.run array;
      (* per invocation: STA stores the golden runs (its cycles are
         cfg-dependent — port pressure bounds the II), the decoupled
         architectures their post-filter unit traces *)
}

let prepare (plan : plan) ~(invocations : Machine.invocation list)
    ~(mem : Interp.Memory.t) : prepared =
  let c = plan.pl_compiled in
  let x = Machine.start c mem in
  let runs = Array.of_list (List.map (Machine.execute c x) invocations) in
  { pr_plan = plan; pr_tally = Machine.tally x; pr_runs = runs }

let final_memory (pr : prepared) = Machine.tally_memory pr.pr_tally

let trace_digest (pr : prepared) =
  let run_digest = function
    | Machine.Golden g -> string_of_int g.Interp.steps
    | Machine.Traces trs ->
      String.concat "" (Array.to_list (Array.map Trace.digest trs))
  in
  Digest.to_hex
    (Digest.string
       (String.concat ";" (Array.to_list (Array.map run_digest pr.pr_runs))))

let simulate ?(validate = true) ?w ?collect ?record_mem ?max_cycles
    ~(cfg : Config.t) (pr : prepared) : Machine.result =
  if validate then Config.validate cfg;
  Machine.replay ?w ?collect ?record_mem ?max_cycles ~cfg
    pr.pr_plan.pl_compiled pr.pr_tally (Array.to_seq pr.pr_runs)

type status = Cycles of int | Deadlock

type point = {
  status : status;
  killed : int;
  committed : int;
  stats : (string * (string * int) list) list;
}

let classify simulate =
  match simulate () with
  | r ->
    {
      status = Cycles r.Machine.cycles;
      killed = r.Machine.killed_stores;
      committed = r.Machine.committed_stores;
      stats = Stats.export r.Machine.stats;
    }
  | exception Timing.Deadlock _ ->
    { status = Deadlock; killed = 0; committed = 0; stats = [] }

let point ~cache ~instance ~cfg plan prepared =
  let key =
    Cache.key
      [ Cache.version; "sweep-point/1"; plan.pl_digest; instance;
        Config.key cfg ]
  in
  match (Cache.find cache key : point option) with
  | Some p -> (p, true)
  | None ->
    let p =
      classify (fun () -> simulate ~validate:false ~cfg (Lazy.force prepared))
    in
    Cache.store ~kind:"sweep-point" cache key p;
    (p, false)
