(* The four workloads: inputs made from the seed, the job declarations of
   the bench sections they stand for, and one pass over those jobs.

   The job lists restate the declarations in bench/main.ml (suite_reqs,
   table2_reqs, fig7_reqs, ablation_reqs, mem_reqs, mlp_reqs, the sizing
   and sweep sections), whose executable cannot be linked from here. Each
   pass calls the same entry points those sections and `daec` call,
   through {!Sim.SIM}. Unlike the bench, kernel instances are made once
   at set-up; each job still builds its IR, invocations and memory image
   ([Kernels.build]), except in dse-sweep, which builds its sweep
   workloads once at set-up as `daec sweep` does. *)

open Dae_workloads
module Machine = Sim.Machine
module Config = Sim.Config
module Cache = Sim.Cache
module Sweep = Sim.Sweep
module Sizing = Sim.Sizing

let span = Span.span

type scale =
  | Full  (** the inputs of {!Kernels.paper_suite} *)
  | Quick  (** the inputs of {!Kernels.test_suite} *)

(* --- inputs ----------------------------------------------------------------- *)

(* Seed 0 keeps every constructor's own default seed, so the inputs are the
   suites' (and the pins cover them); any other seed re-draws each input at
   the same size. *)
let draw ~seed tag = if seed = 0 then None else Some (Hashtbl.hash (tag, seed))

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

(* generator seed of each (graph, seed), found by the first set-up *)
let graph_seeds : (string * int, int) Hashtbl.t = Hashtbl.create 8

(* A graph for [seed]: the suite's own at seed 0, otherwise the first draw
   whose bfs depth and sssp round count (capped at [rounds]) equal the
   suite graph's. The graph kernels run one invocation per level or round,
   so every seed then asks for the same number of invocations over an edge
   list of the same size; [rounds] is 0 for a graph only bfs and bc read.
   [mk] builds the graph of one generator seed. About one draw in three of the paper graph has one sssp round fewer, so
   the search is remembered: it is the benchmark's choice of input, and
   only the one draw it picks is set-up work timed in [setup_s]. *)
let graph ~seed ~tag ~rounds mk default =
  if seed = 0 then mk default
  else
    mk
      (memo graph_seeds (tag, seed) (fun () ->
           let shape g =
             ( snd (Graph.bfs_reference g ~source:0),
               min rounds (snd (Graph.sssp_reference g ~source:0)) )
           in
           let want = shape (mk default) in
           let rec go attempt =
             if attempt = 1000 then
               Fmt.failwith "no %s graph of the suite's depth for seed %d" tag
                 seed;
             let s = Hashtbl.hash (tag, seed, attempt) in
             if shape (mk s) = want then s else go (attempt + 1)
           in
           go 0))

(* (instance id, kernel): the instance id names the input where it differs
   from the suite's, so job keys never collide with BENCH_*.json keys of
   other inputs *)
let suite ~scale ~seed =
  let d = draw ~seed in
  let g, rounds =
    match scale with
    | Quick ->
      ( graph ~seed ~tag:"graph" ~rounds:4
          (fun seed -> Graph.small ~seed ())
          42,
        4 )
    | Full ->
      (* Graph.email_eu_core_like's generator and size *)
      ( graph ~seed ~tag:"graph" ~rounds:6
          (fun seed ->
            Graph.generate ~seed ~nodes:1005 ~edges:25571 ~max_weight:15)
          0xEEC0,
        6 )
  in
  let graph =
    [
      Kernels.bfs ~graph:g ();
      Kernels.bc ~graph:g ();
      Kernels.sssp ~graph:g ~max_rounds:rounds ();
    ]
  in
  let rest =
    match scale with
    | Quick ->
      [
        Kernels.hist ~n:60 ~buckets:8 ~cap:12 ?seed:(d "hist") ();
        Kernels.thr ~n:50 ?seed:(d "thr") ();
        Kernels.mm ~left:12 ~right:12 ~m:60 ?seed:(d "mm") ();
        Kernels.fw ~n:5 ?seed:(d "fw") ();
        Kernels.sort ~n:8 ?seed:(d "sort") ();
        Kernels.spmv ~rows:6 ~cols:6 ~nnz:30 ~clamp:25 ?seed:(d "spmv") ();
      ]
    | Full ->
      [
        Kernels.hist ?seed:(d "hist") ();
        Kernels.thr ?seed:(d "thr") ();
        Kernels.mm ?seed:(d "mm") ();
        Kernels.fw ?seed:(d "fw") ();
        Kernels.sort ?seed:(d "sort") ();
        Kernels.spmv ?seed:(d "spmv") ();
      ]
  in
  List.map (fun (k : Kernels.t) -> (k.Kernels.name, k)) (graph @ rest)

(* --- jobs ------------------------------------------------------------------ *)

type job = {
  key : string;  (** as bench/main.ml keys it: instance:ARCH:config[#uN] *)
  inst : string;
  kernel : Kernels.t;
  arch : Machine.arch;
  cfg : Config.t;
  partition : Dae_core.Decouple.assignment option;
}

let units_suffix = function
  | None -> ""
  | Some (a : Dae_core.Decouple.assignment) ->
    Printf.sprintf "#u%d" a.Dae_core.Decouple.n_access

let job ?(cfg = Config.default) ?partition (inst, kernel) arch =
  {
    key =
      Printf.sprintf "%s:%s:%s%s" inst (Machine.arch_name arch)
        (Config.key cfg) (units_suffix partition);
    inst;
    kernel;
    arch;
    cfg;
    partition;
  }

(* fig6/table1, table2, fig7 and the ablations: every scratchpad
   Machine.simulate job of the bench (Quick: fig6/table1 only) *)
let scratchpad_jobs ~scale ~seed =
  let ks = suite ~scale ~seed in
  let fig6 =
    List.concat_map
      (fun k -> List.map (job k) [ Machine.Sta; Dae; Spec; Oracle ])
      ks
  in
  match scale with
  | Quick -> fig6
  | Full ->
    let d = draw ~seed in
    let named name = (name, List.assoc name ks) in
    let table2 =
      List.concat_map
        (fun (name, mk) ->
          List.map
            (fun rate ->
              job (Printf.sprintf "%s~r%d" name rate, mk rate) Machine.Spec)
            Misspec.rates)
        [
          ( "hist",
            fun rate -> Misspec.hist ?seed:(d "hist~r") ~rate_percent:rate () );
          ( "thr",
            fun rate -> Misspec.thr ?seed:(d "thr~r") ~rate_percent:rate () );
          ("mm", fun rate -> Misspec.mm ?seed:(d "mm~r") ~rate_percent:rate ());
        ]
    in
    let fig7 =
      List.concat_map
        (fun depth ->
          let k =
            ( Printf.sprintf "nest%d~n400" depth,
              Synthetic.workload ~n:400 ~depth ?seed:(d "nest") () )
          in
          [ job k Machine.Spec; job k Machine.Oracle ])
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    in
    let sq_kernel =
      ( "bfs~g128e1200",
        Kernels.bfs
          ~graph:
            (graph ~seed ~tag:"g128" ~rounds:0
               (fun seed -> Graph.small ~seed ~nodes:128 ~edges:1200 ())
               42)
          () )
    in
    let ablation_sq =
      List.map
        (fun sq ->
          job
            ~cfg:{ Config.default with Config.store_queue_size = sq }
            sq_kernel Machine.Spec)
        [ 2; 4; 8; 16; 32; 64 ]
    in
    let ablation_lat =
      List.concat_map
        (fun l ->
          let cfg = { Config.default with Config.fifo_latency = l } in
          [ job ~cfg (named "hist") Machine.Dae; job ~cfg (named "hist") Spec ])
        [ 1; 2; 4; 8 ]
    in
    let ablation_vw =
      List.concat_map
        (fun k ->
          List.map
            (fun v ->
              job
                ~cfg:{ Config.default with Config.vector_width = v }
                k Machine.Spec)
            [ 1; 2; 4; 8 ])
        [
          named "thr";
          ( "nest6~n500p15",
            Synthetic.workload ~n:500 ~depth:6 ~pass_percent:15 ?seed:(d "nest")
              () );
          ( "bc~g64e400",
            Kernels.bc
              ~graph:
                (graph ~seed ~tag:"g64" ~rounds:0
                   (fun seed -> Graph.small ~seed ~nodes:64 ~edges:400 ())
                   42)
              () );
        ]
    in
    fig6 @ table2 @ fig7 @ ablation_sq @ ablation_lat @ ablation_vw

(* the bench's mem section points: the CLI's --mem cache baseline and a
   starved single-bank geometry *)
let mem_geoms =
  [
    Config.default_geom;
    {
      Config.banks = 1;
      sets = 8;
      ways = 1;
      line_words = 4;
      hit_latency = 2;
      mshrs = 2;
      dram =
        {
          Config.dram_banks = 2;
          row_words = 128;
          t_row_hit = 30;
          t_row_miss = 80;
          t_bus = 8;
        };
    };
  ]

let hier_cfg geom = { Config.default with Config.hierarchy = Config.Hierarchy geom }

(* mem (suite × DAE/SPEC/ORACLE × both geometries) and mlp (the
   graph/irregular kernels' DAE at 1, 2 and their natural N access units,
   cache-base) *)
let hierarchy_jobs ~scale ~seed =
  let ks = suite ~scale ~seed in
  let mem =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun geom ->
            List.map (job ~cfg:(hier_cfg geom) k) [ Machine.Dae; Spec; Oracle ])
          mem_geoms)
      ks
  in
  let mlp =
    List.concat_map
      (fun ((_, (k : Kernels.t)) as ik) ->
        if not (List.mem k.Kernels.name [ "bfs"; "bc"; "sssp"; "mm"; "spmv" ])
        then []
        else
          let assignment max_units =
            (Dae_analysis.Partition.analyze ?max_units (k.Kernels.build ()))
              .Dae_analysis.Partition.assignment
          in
          let n = (assignment None).Dae_core.Decouple.n_access in
          List.map
            (fun units ->
              job ~cfg:(hier_cfg Config.default_geom)
                ?partition:
                  (if units <= 1 then None else Some (assignment (Some units)))
                ik Machine.Dae)
            (List.sort_uniq compare [ 1; min 2 n; n ]))
      ks
  in
  mem @ mlp

(* A sub-grid of Sweep.default_axes that keeps each axis's ends and the
   capacity-0 probes: 144 of its 648 configurations, so a cold pass takes
   about two seconds instead of eight. Two thirds of the points are still
   deadlock probes. It leaves out value-FIFO depth 1: with store-value
   depth 1 and request depth 2 or more it deadlocks mm/SPEC on about one
   input in 25, although the sizing analyzer's minima allow it, and the
   sweep rightly reports that as a sizing violation. *)
let sweep_axes =
  {
    Sweep.default_axes with
    Sweep.req_fifo = [ 0; 1; 2; 16 ];
    val_fifo = [ 0; 2; 8 ];
    lq = [ 1; 4 ];
    sq = [ 2; 32 ];
  }

(* --- passes ----------------------------------------------------------------- *)

type result = {
  r_key : string;
  r_value : string;  (** pinned: cycles, or the job's summary token *)
  r_cycles : int;  (** simulated here; 0 when served from the cache *)
  r_failures : string list;
}

let guarded key f =
  Span.with_job key (fun () ->
      match f () with
      | r -> r
      | exception e ->
        {
          r_key = key;
          r_value = "exception";
          r_cycles = 0;
          r_failures = [ key ^ ": " ^ Printexc.to_string e ];
        })

let build (k : Kernels.t) = span "Kernels.build" k.Kernels.build
let invocations (k : Kernels.t) = span "Kernels.build" k.Kernels.invocations
let init_mem (k : Kernels.t) = span "Kernels.build" k.Kernels.init_mem

let reference_check (k : Kernels.t) mem =
  match span "Kernels.check" (fun () -> k.Kernels.check mem) with
  | Ok () -> []
  | Error msg -> [ k.Kernels.name ^ " failed its reference check: " ^ msg ]

(* the compile-level facts every bench job records: checker diagnostics
   and the sizing verdict *)
let facts ~cfg = function
  | None -> []
  | Some p ->
    let errors =
      Dae_analysis.Diag.errors
        (span "Checker.run" (fun () -> Dae_analysis.Checker.run p))
    in
    (if errors > 0 then [ Printf.sprintf "%d checker errors" errors ] else [])
    @
    match span "Sizing.analyze" (fun () -> Sizing.analyze ~cfg p) with
    | Error _ -> [ "sizing: segment budget exceeded" ]
    | Ok sz when Sizing.deadlocks sz -> [ "sizing: provable deadlock" ]
    | Ok _ -> []

let cached (type a) ~kind cache key (compute : unit -> a) : a =
  match span "Cache.find" (fun () -> (Cache.find cache key : a option)) with
  | Some v -> v
  | None ->
    let v = compute () in
    span "Cache.store" (fun () -> Cache.store ~kind cache key v);
    v

type probe = P_cycles of int | P_deadlock | P_rejected

module Passes (S : Sim.SIM) = struct
  let scratchpad jobs ~cache:_ =
    List.map snd
      (Dae_sim.Runner.map_keyed ~domains:1
         ~key:(fun j -> j.key)
         ~f:(fun j ->
           guarded j.key (fun () ->
               let r =
                 S.machine ~cfg:j.cfg j.arch (build j.kernel)
                   ~invocations:(invocations j.kernel) ~mem:(init_mem j.kernel)
               in
               {
                 r_key = j.key;
                 r_value = string_of_int r.Machine.cycles;
                 r_cycles = r.Machine.cycles;
                 r_failures =
                   reference_check j.kernel r.Machine.memory
                   @ facts ~cfg:j.cfg r.Machine.pipeline;
               }))
         jobs)

  (* the bench's run_req_retimed: one plan and one prepare per (kernel,
     arch, partition), every configuration a replay memoized in the
     content cache *)
  let hierarchy jobs ~cache =
    let plans = Hashtbl.create 32 and prepared = Hashtbl.create 32 in
    let plan_key j =
      Printf.sprintf "%s:%s%s" j.inst (Machine.arch_name j.arch)
        (units_suffix j.partition)
    in
    let plan_for j =
      memo plans (plan_key j) (fun () ->
          S.plan ?partition:j.partition j.arch (build j.kernel))
    in
    let prepared_for j =
      memo prepared (plan_key j) (fun () ->
          let plan = plan_for j in
          let pr =
            S.prepare plan ~invocations:(invocations j.kernel)
              ~mem:(init_mem j.kernel)
          in
          (match reference_check j.kernel (S.final_memory pr) with
          | [] -> ()
          | msg :: _ -> failwith msg);
          span "Cache.store" (fun () ->
              Cache.store ~kind:"plan" cache
                (Cache.key [ Cache.version; "plan-stamp/1"; S.plan_digest plan ])
                (S.plan_digest plan));
          pr)
    in
    List.map snd
      (Dae_sim.Runner.map_keyed ~domains:1
         ~key:(fun j -> j.key)
         ~f:(fun j ->
           guarded j.key (fun () ->
               let plan = plan_for j in
               let replayed = ref 0 in
               (* the bench's retime_point payload *)
               let cycles, _killed, _committed, _stats =
                 cached ~kind:"retime" cache
                   (Cache.key
                      [
                        Cache.version;
                        "perfbench-retime-point/1";
                        S.plan_digest plan;
                        j.inst;
                        Config.key j.cfg;
                      ])
                   (fun () ->
                     let r = S.simulate ~cfg:j.cfg (prepared_for j) in
                     replayed := r.Machine.cycles;
                     ( r.Machine.cycles,
                       r.Machine.killed_stores,
                       r.Machine.committed_stores,
                       r.Machine.stats ))
               in
               let p = S.pipeline plan in
               Option.iter
                 (fun p ->
                   ignore
                     (span "Area.decoupled" (fun () ->
                          Dae_sim.Area.decoupled ~cfg:j.cfg
                            ~ignore_poison:(j.arch = Machine.Oracle)
                            p)))
                 p;
               {
                 r_key = j.key;
                 r_value = string_of_int cycles;
                 r_cycles = !replayed;
                 r_failures = facts ~cfg:j.cfg p;
               }))
         jobs)

  (* `daec size --validate` over the suite in both decoupled modes, plus
     the soundness checker and the taint census on each compile *)
  let size_validate kernels ~cache =
    List.concat_map
      (fun (inst, (k : Kernels.t)) ->
        List.map
          (fun (mname, mode, arch) ->
            let key = inst ^ ":" ^ mname in
            guarded key (fun () ->
                let p =
                  span "Pipeline.compile" (fun () ->
                      Dae_core.Pipeline.compile ~mode
                        (Dae_ir.Func.clone (build k)))
                in
                let errors =
                  Dae_analysis.Diag.errors
                    (span "Checker.run" (fun () -> Dae_analysis.Checker.run p))
                in
                let taint =
                  span "Taint.analyze" (fun () -> Dae_analysis.Taint.analyze p)
                in
                match
                  span "Sizing.analyze" (fun () ->
                      Sizing.analyze ~cfg:Config.default p)
                with
                | Error _ ->
                  {
                    r_key = key;
                    r_value = "skipped";
                    r_cycles = 0;
                    r_failures = [ key ^ ": sizing segment budget exceeded" ];
                  }
                | Ok sz ->
                  let plan = S.plan arch (build k) in
                  let prepared =
                    lazy
                      (S.prepare plan ~invocations:(invocations k)
                         ~mem:(init_mem k))
                  in
                  let vkey sub cfg =
                    Cache.key
                      [
                        Cache.version;
                        "perfbench-size-validate/1";
                        sub;
                        S.plan_digest plan;
                        inst;
                        Config.key cfg;
                      ]
                  in
                  let replayed = ref 0 in
                  let min_cfg = sz.Sizing.min_cfg in
                  let cycles, bound =
                    cached ~kind:"size-validate" cache (vkey "min" min_cfg)
                      (fun () ->
                        let r =
                          S.simulate ~collect:true ~cfg:min_cfg
                            (Lazy.force prepared)
                        in
                        replayed := r.Machine.cycles;
                        ( r.Machine.cycles,
                          span "Sizing.bound_of_timelines" (fun () ->
                              Sizing.bound_of_timelines sz r.Machine.timelines)
                        ))
                  in
                  let probe =
                    match Sizing.critical_decrement sz with
                    | None -> "none"
                    | Some (_, probe_cfg) -> (
                      match
                        cached ~kind:"size-validate" cache
                          (vkey "probe" probe_cfg) (fun () ->
                            match
                              S.simulate ~validate:false ~cfg:probe_cfg
                                (Lazy.force prepared)
                            with
                            | r ->
                              replayed := !replayed + r.Machine.cycles;
                              P_cycles r.Machine.cycles
                            | exception Dae_sim.Timing.Deadlock _ -> P_deadlock
                            | exception Invalid_argument _ -> P_rejected)
                      with
                      | P_cycles c -> string_of_int c
                      | P_deadlock -> "deadlock"
                      | P_rejected -> "rejected")
                  in
                  {
                    r_key = key;
                    r_value =
                      Printf.sprintf "min=%d,bound=%d,probe=%s,taint=%d/%d"
                        cycles bound probe
                        (List.length taint.Dae_analysis.Taint.sources)
                        (List.length taint.Dae_analysis.Taint.sites);
                    r_cycles = !replayed;
                    r_failures =
                      (if cycles > bound then
                         [
                           Printf.sprintf
                             "%s: %d cycles at the minimum depths exceed the \
                              bound %d"
                             key cycles bound;
                         ]
                       else [])
                      @
                      if errors > 0 then
                        [ Printf.sprintf "%s: %d checker errors" key errors ]
                      else [];
                  }))
          [
            ("dae", Dae_core.Pipeline.Dae, Machine.Dae);
            ("spec", Dae_core.Pipeline.Spec, Machine.Spec);
          ])
      kernels

  (* `daec sweep`: the test-suite kernels × DAE/SPEC/ORACLE × [axes]; one
     result per (kernel, arch) job, pinned as total cycles / deadlocked
     points / digest of the rendered points *)
  let sweep ~axes ws ~cache =
    let t =
      S.sweep ~cache ~axes ~archs:[ Machine.Dae; Spec; Oracle ] ws
    in
    let n = List.length (Sweep.grid axes) in
    let rec groups acc = function
      | [] -> List.rev acc
      | pts ->
        groups
          (List.filteri (fun i _ -> i < n) pts :: acc)
          (List.filteri (fun i _ -> i >= n) pts)
    in
    let s = t.Sweep.summary in
    {
      r_key = "sweep:checks";
      r_value =
        Printf.sprintf "%d/%d" s.Sweep.sm_checks s.Sweep.sm_sizing_checked;
      r_cycles = 0;
      r_failures = s.Sweep.sm_check_failures @ s.Sweep.sm_sizing_violations;
    }
    :: List.map
         (fun (pts : Sweep.point list) ->
           let p0 = List.hd pts in
           let cycles, deadlocks, fresh =
             List.fold_left
               (fun (c, d, f) (p : Sweep.point) ->
                 match p.Sweep.pt_status with
                 | Sweep.Cycles x ->
                   (c + x, d, if p.Sweep.pt_cached then f else f + x)
                 | Sweep.Deadlock -> (c, d + 1, f))
               (0, 0, 0) pts
           in
           let digest =
             span "render" (fun () ->
                 Digest.to_hex
                   (Digest.string
                      (String.concat "\n"
                         (List.map (Fmt.str "%a" Sweep.pp_point) pts))))
           in
           {
             r_key =
               Printf.sprintf "%s:%s@grid" p0.Sweep.pt_workload
                 (Machine.arch_name p0.Sweep.pt_arch);
             r_value = Printf.sprintf "%d/%d/%s" cycles deadlocks digest;
             r_cycles = fresh;
             r_failures = [];
           })
         (groups [] t.Sweep.points)
end

module Untraced = Passes (Sim.Library)
module Traced = Passes (Sim.Traced)

(* --- the workload table ------------------------------------------------------ *)

type pass = traced:bool -> cache:Cache.t -> result list

type t = {
  name : string;
  warm_passes : int;  (** warm passes per cold pass *)
  setup : scale:scale -> seed:int -> pass;  (** make inputs, declare jobs *)
}

(* Why each workload is here: BENCHMARK.json and README.md. Warm passes
   are cheap wherever the content cache serves them, so those workloads
   take several per round for a steadier warm median: fifteen where a
   round is one long cold pass and a warm pass takes under 0.1 s, five in
   dse-sweep, whose short rounds repeat. paper-scratchpad has no
   cache, but every workload reports warm_wall_s: its one warm pass repeats
   the cold one in the same process, and would show any reuse of results
   a later change gives Machine.simulate jobs. *)
let all =
  [
    {
      name = "paper-scratchpad";
      warm_passes = 1;
      setup =
        (fun ~scale ~seed ->
          let jobs = scratchpad_jobs ~scale ~seed in
          fun ~traced ->
            if traced then Traced.scratchpad jobs else Untraced.scratchpad jobs);
    };
    {
      name = "hier-retime";
      warm_passes = 15;
      setup =
        (fun ~scale ~seed ->
          let jobs = hierarchy_jobs ~scale ~seed in
          fun ~traced ->
            if traced then Traced.hierarchy jobs else Untraced.hierarchy jobs);
    };
    {
      name = "dse-sweep";
      warm_passes = 5;
      setup =
        (fun ~scale ~seed ->
          (* as `daec sweep` and the bench's sweep section do, the
             workloads are built once, before the sweeps *)
          let ws =
            List.map
              (fun (_, k) -> Sweep.workload_of_kernel ~suite:"quick" k)
              (suite ~scale:Quick ~seed)
          in
          let axes =
            match scale with Quick -> Sweep.quick_axes | Full -> sweep_axes
          in
          fun ~traced ->
            if traced then Traced.sweep ~axes ws else Untraced.sweep ~axes ws);
    };
    {
      name = "size-validate";
      warm_passes = 15;
      setup =
        (fun ~scale ~seed ->
          let kernels = suite ~scale ~seed in
          fun ~traced ->
            if traced then Traced.size_validate kernels
            else Untraced.size_validate kernels);
    };
  ]
