(* Top-level machine: compiles a kernel for one of the four evaluated
   architectures and simulates a sequence of invocations (graph kernels run
   once per BFS level / relaxation round, threading memory through).

   Every decoupled invocation is checked against the sequential golden
   model (final memory + per-array commit order) and the AGU/CU streams
   are checked against each other (Lemma 6.1) — a run that returns is a
   run that proved its own sequential consistency. *)

open Dae_ir

type arch = Sta | Dae | Spec | Oracle

let arch_name = function
  | Sta -> "STA"
  | Dae -> "DAE"
  | Spec -> "SPEC"
  | Oracle -> "ORACLE"

type invocation = (string * Types.value) list (* kernel arguments *)

type timeline = {
  t_invocation : int;
  t_agu : Trace.unit_trace;
  t_aus : Trace.unit_trace array; (* extra access units; [||] for 2-way *)
  t_cu : Trace.unit_trace;
  t_timing : Timing.result;
}

type result = {
  arch : arch;
  cycles : int;
  invocations : int;
  killed_stores : int;
  committed_stores : int;
  misspec_rate : float;
  area : Area.breakdown;
  memory : Interp.Memory.t; (* final memory, for workload-level checks *)
  pipeline : Dae_core.Pipeline.t option;
  stats : Stats.keyed; (* cycle attribution, merged over invocations *)
  timelines : timeline list; (* per invocation; only with ~collect:true *)
  mem_events : Timing.mem_event array list;
      (* per invocation, in order; only with ~record_mem:true *)
}

exception Check_failed of string

(* --- the steps of a simulation ----------------------------------------- *)

(* [simulate] below streams these steps; Retime folds the same ones over
   stored traces, so the two drivers cannot drift apart. *)

type lowered = {
  l_pipeline : Dae_core.Pipeline.t;
  l_program : Lower.t;
  l_subscribers : (int * Trace.unit_id list) list;
}

type compiled = { c_arch : arch; c_func : Func.t; c_lowered : lowered option }

let compile ?(partition = Dae_core.Decouple.trivial) arch (f : Func.t) =
  let lowered =
    match arch with
    | Sta -> None
    | Dae | Spec | Oracle ->
      let mode =
        if arch = Dae then Dae_core.Pipeline.Dae else Dae_core.Pipeline.Spec
      in
      let p = Dae_core.Pipeline.compile ~mode ~partition f in
      let unit_id = function
        | `Agu -> Trace.Agu
        | `Cu -> Trace.Cu
        | `Au k -> Trace.Au k
      in
      Some
        {
          l_pipeline = p;
          l_program = Lower.compile p;
          l_subscribers =
            List.map
              (fun (m, subs) -> (m, List.map unit_id subs))
              p.Dae_core.Pipeline.load_subscribers;
        }
  in
  { c_arch = arch; c_func = f; c_lowered = lowered }

(* What a result reports of the functional half. Kept apart from the
   golden memory, so that stored runs do not keep that memory alive. *)
type tally = {
  memory : Interp.Memory.t; (* STA: the golden memory itself *)
  mutable killed : int;
  mutable committed : int;
}

type exec = { golden_mem : Interp.Memory.t; tally : tally }

let start c mem =
  let golden_mem = Interp.Memory.copy mem in
  let memory =
    match c.c_lowered with
    | None -> golden_mem
    | Some _ -> Interp.Memory.copy mem
  in
  { golden_mem; tally = { memory; killed = 0; committed = 0 } }

let tally x = x.tally
let tally_memory t = t.memory

type run = Golden of Interp.result | Traces of Trace.unit_trace array

let execute c x args =
  (* Pipeline.compile normalizes [c_func] in place: it is the pipeline's
     [original], the sequential golden model *)
  let golden = Interp.run c.c_func ~args ~mem:x.golden_mem in
  match c.c_lowered with
  | None -> Golden golden
  | Some l ->
    let r = Exec.run_lowered l.l_program ~args ~mem:x.tally.memory in
    (match Exec.check_against_golden ~golden_mem:x.golden_mem ~golden r with
    | Ok () -> ()
    | Error msg ->
      raise
        (Check_failed
           (Fmt.str "%s/%s: %s" c.c_func.Func.name (arch_name c.c_arch) msg)));
    x.tally.killed <- x.tally.killed + r.Exec.killed_stores;
    x.tally.committed <- x.tally.committed + r.Exec.committed_stores;
    if c.c_arch = Oracle then
      let agu, cu = Timing.oracle_filter r.Exec.agu_trace r.Exec.cu_trace in
      Traces [| agu; cu |]
    else Traces (Exec.traces r)

let replay ?(w = Area.default_weights) ?(collect = false) ?(record_mem = false)
    ?max_cycles ?scheduler ~cfg c t (runs : run Seq.t) : result =
  let invocations = ref 0 and cycles = ref 0 and stats = ref [] in
  let timelines = ref [] and mem_events = ref [] in
  let subscribers =
    match c.c_lowered with Some l -> l.l_subscribers | None -> []
  in
  Seq.iteri
    (fun i run ->
      incr invocations;
      match run with
      | Golden g ->
        cycles := !cycles + (Sta.cycles_of_run ~cfg c.c_func g).Sta.cycles
      | Traces trs ->
        let timed =
          Timing.run_units ~cfg ~validate:false ?max_cycles
            ~record_depths:collect ~record_mem ?scheduler ~subscribers trs
        in
        cycles := !cycles + timed.Timing.cycles;
        stats := Stats.merge_keyed !stats timed.Timing.stats;
        if record_mem then
          mem_events := timed.Timing.mem_events :: !mem_events;
        if collect then
          timelines :=
            {
              t_invocation = i;
              t_agu = trs.(0);
              t_aus = Array.sub trs 2 (Array.length trs - 2);
              t_cu = trs.(1);
              t_timing = timed;
            }
            :: !timelines)
    runs;
  (* read only now: a streamed [runs] executes as it is consumed *)
  let total = t.killed + t.committed in
  let pipeline = Option.map (fun l -> l.l_pipeline) c.c_lowered in
  {
    arch = c.c_arch;
    cycles = !cycles;
    invocations = !invocations;
    killed_stores = t.killed;
    committed_stores = t.committed;
    misspec_rate =
      (if total = 0 then 0.0 else float_of_int t.killed /. float_of_int total);
    area =
      (match pipeline with
      | None -> Area.sta ~w c.c_func
      | Some p ->
        Area.decoupled ~w ~cfg ~ignore_poison:(c.c_arch = Oracle) p);
    memory = t.memory;
    pipeline;
    stats =
      (match pipeline with
      (* the single statically-scheduled unit is never idle: modulo
         scheduling fills every cycle, so the whole run is Busy *)
      | None -> [ ("STA", Stats.of_busy !cycles) ]
      | Some _ -> !stats);
    timelines = List.rev !timelines;
    mem_events = List.rev !mem_events;
  }

(* Streams: each invocation is executed and re-timed before the next one
   runs, so only one invocation's traces are alive at a time. *)
let simulate ?(cfg = Config.default) ?(validate = true) ?w ?collect
    ?record_mem ?max_cycles ?partition ?scheduler (arch : arch) (f : Func.t)
    ~(invocations : invocation list) ~(mem : Interp.Memory.t) : result =
  if validate then Config.validate cfg;
  let c = compile ?partition arch f in
  let x = start c mem in
  replay ?w ?collect ?record_mem ?max_cycles ?scheduler ~cfg c x.tally
    (Seq.map (execute c x) (List.to_seq invocations))

let pp_stats ppf (r : result) =
  Stats.pp_table ~total_cycles:r.cycles ppf r.stats
