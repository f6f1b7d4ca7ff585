(* The simulation entry points the workloads call, behind one signature
   with two implementations.

   [Library] is what the sections of bench/main.ml and `daec` call:
   Machine.simulate, Retime.plan/prepare/simulate and Sweep.run. The
   untraced run uses it, so an optimisation inside lib/ shows up here
   without editing the benchmark.

   [Traced] spells the same steps out over the public functions of the
   layers those entry points fuse (Pipeline.compile, Lower.compile,
   Interp.run, Exec.run_lowered, Timing.run_units, Cache.find/store, ...)
   in the same order, with a span around each call: Retime's
   plan/prepare/simulate, Machine.simulate's own loop (each invocation
   executed and then at once re-timed), and Sweep.run's grid loop. A
   traced pass must reproduce the untraced pass's results byte-for-byte;
   main.ml checks that on every traced pass, so this copy cannot drift
   from the library unnoticed. *)

open Dae_ir
module Machine = Dae_sim.Machine
module Config = Dae_sim.Config
module Cache = Dae_sim.Cache
module Stats = Dae_sim.Stats
module Timing = Dae_sim.Timing
module Sweep = Dae_dse.Sweep
module Sizing = Dae_analysis.Sizing

module type SIM = sig
  type plan
  type prepared

  val plan :
    ?partition:Dae_core.Decouple.assignment -> Machine.arch -> Func.t -> plan

  val plan_digest : plan -> string
  val pipeline : plan -> Dae_core.Pipeline.t option

  val prepare :
    plan ->
    invocations:Machine.invocation list ->
    mem:Interp.Memory.t ->
    prepared

  val final_memory : prepared -> Interp.Memory.t

  val simulate :
    ?validate:bool -> ?collect:bool -> cfg:Config.t -> prepared -> Machine.result

  val machine :
    cfg:Config.t ->
    Machine.arch ->
    Func.t ->
    invocations:Machine.invocation list ->
    mem:Interp.Memory.t ->
    Machine.result

  val sweep :
    cache:Cache.t ->
    axes:Sweep.axes ->
    archs:Machine.arch list ->
    Sweep.workload list ->
    Sweep.t
end

module Library : SIM = struct
  include Dae_sim.Retime

  let simulate ?validate ?collect ~cfg p =
    Dae_sim.Retime.simulate ?validate ?collect ~cfg p

  let machine ~cfg arch f ~invocations ~mem =
    Machine.simulate ~cfg arch f ~invocations ~mem

  let sweep ~cache ~axes ~archs ws = Sweep.run ~domains:1 ~cache ~axes ~archs ws
end

module Traced : SIM = struct
  let span = Span.span

  (* --- steps Machine.simulate and Retime share ---------------------------- *)

  (* Pipeline.compile then Lower.compile *)
  let compile ~partition arch func =
    let mode =
      if arch = Machine.Dae then Dae_core.Pipeline.Dae
      else Dae_core.Pipeline.Spec
    in
    let p =
      span "Pipeline.compile" (fun () ->
          Dae_core.Pipeline.compile ~mode ~partition func)
    in
    (p, span "Lower.compile" (fun () -> Dae_sim.Lower.compile p))

  let subscribers_of (p : Dae_core.Pipeline.t) =
    List.map
      (fun (m, subs) ->
        ( m,
          List.map
            (function
              | `Agu -> Dae_sim.Trace.Agu
              | `Cu -> Dae_sim.Trace.Cu
              | `Au k -> Dae_sim.Trace.Au k)
            subs ))
      p.Dae_core.Pipeline.load_subscribers

  let golden f ~args ~mem =
    let g = span "Interp.run" (fun () -> Interp.run f ~args ~mem) in
    Span.add "Interp.run.steps" g.Interp.steps;
    g

  (* One invocation's functional half: the golden model, the lowered
     execution, the check of one against the other ([fail] makes the
     caller's exception), and the unit traces the timing replay takes. *)
  let execute ~fail ~arch ~(func : Func.t) p lowered ~golden_mem ~sim_mem
      args =
    let g = golden p.Dae_core.Pipeline.original ~args ~mem:golden_mem in
    let r =
      span "Exec.run_lowered" (fun () ->
          Dae_sim.Exec.run_lowered lowered ~args ~mem:sim_mem)
    in
    Span.add "Exec.run_lowered.steps"
      (r.Dae_sim.Exec.agu_steps + r.Dae_sim.Exec.cu_steps);
    (match
       span "Exec.check_against_golden" (fun () ->
           Dae_sim.Exec.check_against_golden ~golden_mem ~golden:g r)
     with
    | Ok () -> ()
    | Error msg ->
      raise
        (fail
           (Fmt.str "%s/%s: %s" func.Func.name (Machine.arch_name arch) msg)));
    let trs =
      match arch with
      | Machine.Oracle ->
        let agu, cu =
          span "Timing.oracle_filter" (fun () ->
              Timing.oracle_filter r.Dae_sim.Exec.agu_trace
                r.Dae_sim.Exec.cu_trace)
        in
        [| agu; cu |]
      | _ -> Dae_sim.Exec.traces r
    in
    (r, trs)

  (* One invocation's timing replay *)
  let replay ~cfg ~collect ~subscribers trs =
    let name =
      if collect then "Timing.run_units_collect" else "Timing.run_units"
    in
    Span.add (name ^ ".events")
      (Array.fold_left (fun n tr -> n + Dae_sim.Trace.length tr) 0 trs);
    try
      span name (fun () ->
          Timing.run_units ~cfg ~validate:false ~record_depths:collect
            ~subscribers trs)
    with Timing.Deadlock _ as e ->
      Span.add (name ^ ".deadlocks") 1;
      raise e

  let sta_cycles ~cfg func g =
    span "Sta.cycles_of_run" (fun () ->
        (Dae_sim.Sta.cycles_of_run ~cfg func g).Dae_sim.Sta.cycles)

  let sta_area func = span "Area.sta" (fun () -> Dae_sim.Area.sta func)

  let decoupled_area ~cfg arch p =
    span "Area.decoupled" (fun () ->
        Dae_sim.Area.decoupled ~cfg ~ignore_poison:(arch = Machine.Oracle) p)

  let result ~arch ~invocations ~killed ~committed ~memory ~pipeline ~cycles
      ~stats ~timelines ~area =
    let total = killed + committed in
    {
      Machine.arch;
      cycles;
      invocations;
      killed_stores = killed;
      committed_stores = committed;
      misspec_rate =
        (if total = 0 then 0.0 else float_of_int killed /. float_of_int total);
      area;
      memory;
      pipeline;
      stats;
      timelines;
      mem_events = [];
    }

  (* --- Retime ------------------------------------------------------------- *)

  type plan = {
    arch : Machine.arch;
    func : Func.t;
    digest : string;
    pipeline : Dae_core.Pipeline.t option; (* None for STA *)
    lowered : Dae_sim.Lower.t option;
    subscribers : (int * Dae_sim.Trace.unit_id list) list;
  }

  (* Retime.plan *)
  let plan ?(partition = Dae_core.Decouple.trivial) arch func =
    match arch with
    | Machine.Sta ->
      let digest =
        span "Printer.pp_func" (fun () ->
            Digest.to_hex (Digest.string (Fmt.str "%a" Printer.pp_func func)))
      in
      {
        arch;
        func;
        digest = "STA:" ^ digest;
        pipeline = None;
        lowered = None;
        subscribers = [];
      }
    | Machine.Dae | Machine.Spec | Machine.Oracle ->
      let p, lowered = compile ~partition arch func in
      let digest =
        span "Lower.digest" (fun () ->
            Digest.to_hex (Dae_sim.Lower.digest lowered))
      in
      {
        arch;
        func;
        digest = Machine.arch_name arch ^ ":" ^ digest;
        pipeline = Some p;
        lowered = Some lowered;
        subscribers = subscribers_of p;
      }

  let plan_digest p = p.digest
  let pipeline p = p.pipeline

  type prepared = {
    plan : plan;
    traces : Dae_sim.Trace.unit_trace array array; (* [||] for STA *)
    goldens : Interp.result array; (* STA only *)
    killed : int;
    committed : int;
    memory : Interp.Memory.t;
  }

  (* Retime.prepare: every invocation's functional half, traces kept *)
  let prepare plan ~invocations ~mem =
    Span.add "Retime.prepare.calls" 1;
    match (plan.pipeline, plan.lowered) with
    | Some p, Some lowered ->
      let sim_mem = Interp.Memory.copy mem in
      let golden_mem = Interp.Memory.copy mem in
      let killed = ref 0 and committed = ref 0 in
      let traces =
        List.map
          (fun args ->
            let r, trs =
              execute
                ~fail:(fun msg -> Dae_sim.Retime.Check_failed msg)
                ~arch:plan.arch ~func:plan.func p lowered ~golden_mem ~sim_mem
                args
            in
            killed := !killed + r.Dae_sim.Exec.killed_stores;
            committed := !committed + r.Dae_sim.Exec.committed_stores;
            trs)
          invocations
      in
      {
        plan;
        traces = Array.of_list traces;
        goldens = [||];
        killed = !killed;
        committed = !committed;
        memory = sim_mem;
      }
    | _ ->
      let mem = Interp.Memory.copy mem in
      let goldens =
        List.map (fun args -> golden plan.func ~args ~mem) invocations
      in
      {
        plan;
        traces = [||];
        goldens = Array.of_list goldens;
        killed = 0;
        committed = 0;
        memory = mem;
      }

  let final_memory pr = pr.memory

  (* Retime.simulate: one replay of every stored invocation *)
  let simulate ?(validate = true) ?(collect = false) ~cfg pr =
    if validate then Config.validate cfg;
    Span.add "Retime.simulate.calls" 1;
    let plan = pr.plan in
    let result =
      result ~arch:plan.arch ~killed:pr.killed ~committed:pr.committed
        ~memory:pr.memory ~pipeline:plan.pipeline
    in
    match plan.pipeline with
    | None ->
      let cycles =
        Array.fold_left
          (fun acc g -> acc + sta_cycles ~cfg plan.func g)
          0 pr.goldens
      in
      result ~invocations:(Array.length pr.goldens) ~cycles
        ~stats:[ ("STA", Stats.of_busy cycles) ]
        ~timelines:[] ~area:(sta_area plan.func)
    | Some p ->
      let cycles = ref 0 and stats = ref [] and timelines = ref [] in
      Array.iteri
        (fun i trs ->
          let timed =
            replay ~cfg ~collect ~subscribers:plan.subscribers trs
          in
          cycles := !cycles + timed.Timing.cycles;
          stats := Stats.merge_keyed !stats timed.Timing.stats;
          if collect then
            timelines :=
              {
                Machine.t_invocation = i;
                t_agu = trs.(0);
                t_aus = Array.sub trs 2 (Array.length trs - 2);
                t_cu = trs.(1);
                t_timing = timed;
              }
              :: !timelines)
        pr.traces;
      result ~invocations:(Array.length pr.traces) ~cycles:!cycles
        ~stats:!stats ~timelines:(List.rev !timelines)
        ~area:(decoupled_area ~cfg plan.arch p)

  (* --- Machine.simulate ---------------------------------------------------- *)

  (* Machine.simulate keeps its own fused loop: each invocation is executed
     and at once re-timed, so only one invocation's traces are alive at a
     time, and STA takes each invocation's cycles right after its golden
     run. No plan digest is made. *)
  let machine ~cfg arch func ~invocations ~mem =
    Config.validate cfg;
    let n = List.length invocations in
    match arch with
    | Machine.Sta ->
      let mem = Interp.Memory.copy mem in
      let cycles =
        List.fold_left
          (fun acc args -> acc + sta_cycles ~cfg func (golden func ~args ~mem))
          0 invocations
      in
      result ~arch ~invocations:n ~killed:0 ~committed:0 ~memory:mem
        ~pipeline:None ~cycles
        ~stats:[ ("STA", Stats.of_busy cycles) ]
        ~timelines:[] ~area:(sta_area func)
    | Machine.Dae | Machine.Spec | Machine.Oracle ->
      let p, lowered = compile ~partition:Dae_core.Decouple.trivial arch func in
      let subscribers = subscribers_of p in
      let sim_mem = Interp.Memory.copy mem in
      let golden_mem = Interp.Memory.copy mem in
      let killed = ref 0 and committed = ref 0 in
      let cycles = ref 0 and stats = ref [] in
      List.iter
        (fun args ->
          let r, trs =
            execute
              ~fail:(fun msg -> Machine.Check_failed msg)
              ~arch ~func p lowered ~golden_mem ~sim_mem args
          in
          killed := !killed + r.Dae_sim.Exec.killed_stores;
          committed := !committed + r.Dae_sim.Exec.committed_stores;
          let timed = replay ~cfg ~collect:false ~subscribers trs in
          cycles := !cycles + timed.Timing.cycles;
          stats := Stats.merge_keyed !stats timed.Timing.stats)
        invocations;
      result ~arch ~invocations:n ~killed:!killed ~committed:!committed
        ~memory:sim_mem ~pipeline:(Some p) ~cycles:!cycles ~stats:!stats
        ~timelines:[]
        ~area:(decoupled_area ~cfg arch p)

  (* --- Sweep.run's grid loop -------------------------------------------- *)

  (* Its own payload tag: this payload type is not Sweep's, so the two must
     never read each other's entries. *)
  let payload_tag = "perfbench-sweep-point/1"

  type payload = {
    status : Sweep.status;
    p_killed : int;
    p_committed : int;
    p_stats : (string * (string * int) list) list;
  }

  let export_stats (keyed : Stats.keyed) =
    List.map
      (fun (unit, t) ->
        ( unit,
          List.map
            (fun c -> (Stats.cause_name c, Stats.get t c))
            Stats.all_causes ))
      keyed

  let payload_of = function
    | Ok (r : Machine.result) ->
      {
        status = Sweep.Cycles r.Machine.cycles;
        p_killed = r.Machine.killed_stores;
        p_committed = r.Machine.committed_stores;
        p_stats = export_stats r.Machine.stats;
      }
    | Error () ->
      { status = Sweep.Deadlock; p_killed = 0; p_committed = 0; p_stats = [] }

  let deadlock_or f =
    match f () with r -> Ok r | exception Timing.Deadlock _ -> Error ()

  let covers ~(min : Config.t) (c : Config.t) =
    c.Config.request_fifo_capacity >= min.Config.request_fifo_capacity
    && c.Config.value_fifo_capacity >= min.Config.value_fifo_capacity
    && c.Config.store_value_fifo_capacity
       >= min.Config.store_value_fifo_capacity
    && c.Config.load_queue_size >= min.Config.load_queue_size
    && c.Config.store_queue_size >= min.Config.store_queue_size

  (* one (workload, arch) job, with Sweep.run's defaults: one sampled
     cross-check against the fused simulator, sizing validation on *)
  let sweep_job ~cache ~cfgs ((w : Sweep.workload), arch) =
    let plan = plan arch w.Sweep.w_func in
    let prepares = ref 0 in
    let prepared =
      lazy
        (incr prepares;
         prepare plan ~invocations:w.Sweep.w_invocations ~mem:w.Sweep.w_mem)
    in
    let points =
      List.map
        (fun cfg ->
          let cfg_key = Config.key cfg in
          let key =
            Cache.key
              [
                Cache.version;
                payload_tag;
                plan.digest;
                w.Sweep.w_instance;
                cfg_key;
              ]
          in
          let p, cached =
            match
              span "Cache.find" (fun () ->
                  (Cache.find cache key : payload option))
            with
            | Some p -> (p, true)
            | None ->
              let p =
                payload_of
                  (deadlock_or (fun () ->
                       simulate ~validate:false ~cfg (Lazy.force prepared)))
              in
              span "Cache.store" (fun () ->
                  Cache.store ~kind:"sweep-point" cache key p);
              (p, false)
          in
          ( cfg,
            {
              Sweep.pt_workload = w.Sweep.w_name;
              pt_arch = arch;
              pt_cfg = cfg_key;
              pt_status = p.status;
              pt_killed = p.p_killed;
              pt_committed = p.p_committed;
              pt_stats = p.p_stats;
              pt_cached = cached;
            } ))
        cfgs
    in
    let where (pt : Sweep.point) =
      Fmt.str "%s/%s@%s" w.Sweep.w_name (Machine.arch_name arch)
        pt.Sweep.pt_cfg
    in
    let check_failures =
      match points with
      | [] -> []
      | (cfg, pt) :: _ ->
        let full =
          payload_of
            (deadlock_or (fun () ->
                 span "Machine.simulate" (fun () ->
                     Machine.simulate ~cfg ~validate:false arch w.Sweep.w_func
                       ~invocations:w.Sweep.w_invocations ~mem:w.Sweep.w_mem)))
        in
        if
          full.status = pt.Sweep.pt_status
          && (full.status = Sweep.Deadlock
             || (full.p_killed = pt.Sweep.pt_killed
                && full.p_committed = pt.Sweep.pt_committed
                && full.p_stats = pt.Sweep.pt_stats))
        then []
        else [ where pt ^ ": re-timed and fused results diverge" ]
    in
    let sizing_checked, sizing_violations =
      match plan.pipeline with
      | None -> (0, [])
      | Some p -> (
        match
          span "Sizing.analyze" (fun () ->
              Sizing.analyze ~cfg:Config.default p)
        with
        | Error _ -> (0, [])
        | Ok sz ->
          let min = sz.Sizing.min_cfg in
          ( 1,
            List.filter_map
              (fun (cfg, (pt : Sweep.point)) ->
                if pt.Sweep.pt_status = Sweep.Deadlock && covers ~min cfg then
                  Some (where pt ^ ": deadlock at capacities >= sizing minima")
                else None)
              points ))
    in
    (points, !prepares, check_failures, sizing_checked, sizing_violations)

  let sweep ~cache ~axes ~archs ws =
    let t0 = Unix.gettimeofday () in
    let before = Cache.counters cache in
    let cfgs = Sweep.grid axes in
    let outs =
      List.map
        (sweep_job ~cache ~cfgs)
        (List.concat_map (fun w -> List.map (fun a -> (w, a)) archs) ws)
    in
    let after = Cache.counters cache in
    let delta =
      {
        Cache.hits = after.Cache.hits - before.Cache.hits;
        misses = after.Cache.misses - before.Cache.misses;
        corrupt = after.Cache.corrupt - before.Cache.corrupt;
        stores = after.Cache.stores - before.Cache.stores;
      }
    in
    let points =
      List.concat_map (fun (ps, _, _, _, _) -> List.map snd ps) outs
    in
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
    let wall = Unix.gettimeofday () -. t0 in
    {
      Sweep.points;
      summary =
        {
          Sweep.sm_points = List.length points;
          sm_deadlocked =
            List.length
              (List.filter
                 (fun p -> p.Sweep.pt_status = Sweep.Deadlock)
                 points);
          sm_wall_s = wall;
          sm_prepares = sum (fun (_, n, _, _, _) -> n);
          sm_cache = delta;
          sm_hit_rate = Cache.hit_rate delta;
          sm_pool =
            { Dae_sim.Runner.p_domains = 1; p_wall_s = wall; p_workers = [||] };
          sm_checks = List.length outs;
          sm_check_failures = List.concat_map (fun (_, _, f, _, _) -> f) outs;
          sm_sizing_checked = sum (fun (_, _, _, n, _) -> n);
          sm_sizing_violations =
            List.concat_map (fun (_, _, _, _, v) -> v) outs;
        };
    }
end
