(* The incremental event-wheel scheduler, held to bit-identical
   equivalence with the seed's rescan-everything calendar it replaced:
   for every kernel of the test suite and for randomized generator CFGs,
   across all four architectures and a spread of configurations —
   scratchpad, capacity floors, two memory-hierarchy points (the default
   cache and a starved 1-bank/2-MSHR geometry over a slow DRAM) and
   invalid capacity-0 boundary probes run with validation off — plus
   paper-scale hist through the default cache hierarchy,
   [Machine.simulate ~scheduler:Event_wheel] must reproduce
   [~scheduler:Seed_calendar]'s cycle counts, complete stall partitions,
   kill/commit counters and deadlock verdicts (message included)
   exactly. *)

open Dae_workloads
module M = Dae_sim.Machine
module Cfg = Dae_sim.Config
module Stats = Dae_sim.Stats
module Timing = Dae_sim.Timing
module E = Dae_sim.Exec
module G = Gen

let tc = Alcotest.test_case
let check = Alcotest.check
let archs = [ M.Sta; M.Dae; M.Spec; M.Oracle ]

let starved_geom =
  {
    Cfg.default_geom with
    Cfg.banks = 1;
    ways = 1;
    mshrs = 2;
    dram =
      {
        Cfg.dram_banks = 2;
        row_words = 128;
        t_row_hit = 30;
        t_row_miss = 80;
        t_bus = 8;
      };
  }

let default_cache =
  { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom }

(* default; capacity floors; the two hierarchy points; two invalid
   capacity-0 boundary probes (one of them under the cache hierarchy,
   pushing the deadlock path through the wheel's bank/MSHR buckets) *)
let cfgs =
  [
    Cfg.default;
    {
      Cfg.default with
      Cfg.request_fifo_capacity = 1;
      value_fifo_capacity = 1;
      store_value_fifo_capacity = 1;
      load_queue_size = 1;
      store_queue_size = 2;
    };
    default_cache;
    { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy starved_geom };
    { Cfg.default with Cfg.request_fifo_capacity = 0 };
    {
      Cfg.default with
      Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom;
      value_fifo_capacity = 0;
      store_queue_size = 2;
    };
  ]

type verdict =
  | Done of int * (string * (string * int) list) list * int * int
  | Dead of string  (** deadlock, message included: verdicts must agree *)
  | Refused  (** the functional half itself rejects the program *)

let verdict ~scheduler arch func ~invocations ~mem cfg =
  match
    M.simulate ~cfg ~validate:false ~scheduler arch (Dae_ir.Func.clone func)
      ~invocations ~mem
  with
  | r ->
    Done
      ( r.M.cycles,
        Stats.export r.M.stats,
        r.M.killed_stores,
        r.M.committed_stores )
  | exception Timing.Deadlock msg -> Dead msg
  | exception (E.Deadlock _ | E.Stream_mismatch _ | E.Desync _) -> Refused
  | exception M.Check_failed _ -> Refused
  | exception Dae_core.Pipeline.Compile_error _ -> Refused

let pp_verdict ppf = function
  | Done (c, _, k, m) -> Fmt.pf ppf "done(%d cyc, %d killed, %d committed)" c k m
  | Dead msg -> Fmt.pf ppf "deadlock(%s)" msg
  | Refused -> Fmt.pf ppf "refused"

let verdict_t = Alcotest.testable pp_verdict ( = )

(* --- suite kernels: every arch, every config, both schedulers ----------- *)

let test_kernel ?(suite = Kernels.test_suite) ?(cfgs = cfgs) name () =
  let k =
    match Kernels.by_name (suite ()) name with
    | Some k -> k
    | None -> Alcotest.failf "kernel %s not in suite" name
  in
  let invocations = k.Kernels.invocations () in
  List.iter
    (fun arch ->
      List.iter
        (fun cfg ->
          let label =
            Fmt.str "%s/%s@%s" name (M.arch_name arch) (Cfg.key cfg)
          in
          let run scheduler =
            verdict ~scheduler arch (k.Kernels.build ()) ~invocations
              ~mem:(k.Kernels.init_mem ()) cfg
          in
          check verdict_t label
            (run Timing.Seed_calendar)
            (run Timing.Event_wheel))
        cfgs)
    archs

(* --- qcheck: the same statement over randomized generator CFGs ----------- *)

let gen_wheel_equiv (g : G.t) =
  List.for_all
    (fun arch ->
      let invocations = [ g.G.args ] in
      List.for_all
        (fun cfg ->
          let run scheduler =
            verdict ~scheduler arch g.G.func ~invocations ~mem:(g.G.mem ())
              cfg
          in
          run Timing.Seed_calendar = run Timing.Event_wheel)
        cfgs)
    archs

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"wheel == seed calendar, randomized CFGs" ~count:40
      small_nat (fun seed -> gen_wheel_equiv (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, stores on several arrays and inner loops" ~count:20
      small_nat (fun seed -> gen_wheel_equiv (Fixtures.gen_cfg_multi ~seed ()));
  ]

let () =
  let kernel_cases =
    List.map
      (fun (k : Kernels.t) ->
        tc k.Kernels.name `Quick (test_kernel k.Kernels.name))
      (Kernels.test_suite ())
  in
  Alcotest.run "wheel"
    [
      ("test-suite kernels", kernel_cases);
      (* paper-scale inputs through the default cache hierarchy: the
         point `daec stats --kernel hist --all --mem cache` runs *)
      ( "paper-scale kernels",
        [
          tc "hist, default cache" `Quick
            (test_kernel ~suite:Kernels.paper_suite
               ~cfgs:[ default_cache ] "hist");
        ] );
      ("randomized CFGs", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
