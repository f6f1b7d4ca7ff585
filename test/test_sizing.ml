(* The static channel-sizing analyzer, held to its acceptance contract:
   for every kernel of the reduced test suite in both decoupled modes it
   must (a) prove the default configuration deadlock-free and name a
   critical channel, (b) emit per-channel minimum depths at which the
   simulator really does complete — within the analyzer's predicted cycle
   bound and with the stall partition intact — and (c) place the deadlock
   boundary exactly: one step below the critical channel's minimum the
   simulator either trips its dynamic deadlock detector (capacity 0,
   which Config.validate would reject up front) or runs no faster than at
   the minimum. Sizing.validate runs (b) and (c) and Sizing.violations
   judges them; the same statement is a qcheck property over the §6
   randomized kernel generator, and each branch of the verdict rule is
   tested on hand-built outcomes. *)

open Dae_workloads
module G = Gen
module M = Dae_sim.Machine
module R = Dae_sim.Retime
module S = Dae_sim.Stats
module P = Dae_core.Pipeline
module Sz = Dae_analysis.Sizing
module Ch = Dae_analysis.Channel

let tc = Alcotest.test_case
let check = Alcotest.check
let modes = [ ("dae", M.Dae); ("spec", M.Spec) ]

let suite_kernel name =
  match Kernels.by_name (Kernels.test_suite ()) name with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s not in test suite" name

(* --- per-kernel: analyze, validate in the simulator ------------------------- *)

let test_kernel name () =
  let k = suite_kernel name in
  List.iter
    (fun (mname, arch) ->
      let label what = Printf.sprintf "%s/%s %s" name mname what in
      let plan = R.plan arch (k.Kernels.build ()) in
      let p = Option.get (R.pipeline plan) in
      match Sz.analyze ~cfg:Dae_sim.Config.default p with
      | Error _ -> Alcotest.failf "%s: segment budget exceeded" (label "analyze")
      | Ok sz ->
        (* the default config is proven deadlock-free, channels are sized *)
        check Alcotest.bool (label "deadlock-free at defaults") false
          (Sz.deadlocks sz);
        check Alcotest.bool (label "has channels") true (sz.Sz.channels <> []);
        List.iter
          (fun (s : Sz.sized) ->
            let n = Ch.name s.Sz.sz_chan.Ch.kind in
            check Alcotest.bool (label (n ^ " min >= 1")) true (s.Sz.sz_min >= 1);
            check Alcotest.bool
              (label (n ^ " matched >= min"))
              true
              (s.Sz.sz_matched >= s.Sz.sz_min))
          sz.Sz.channels;
        let prepared =
          R.prepare plan
            ~invocations:(k.Kernels.invocations ())
            ~mem:(k.Kernels.init_mem ())
        in
        (match k.Kernels.check (R.final_memory prepared) with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" (label "reference check") msg);
        (* the minimum depths complete inside the bound, and one below
           the critical channel's minimum is the boundary *)
        let v = Sz.validate sz prepared in
        check (Alcotest.list Alcotest.string) (label "sizing violations") []
          (Sz.violations v);
        (* an exact stall partition at the minimum depths *)
        let r = R.simulate ~cfg:sz.Sz.min_cfg prepared in
        List.iter
          (fun (u, c) ->
            check Alcotest.int (label (u ^ " partitions")) r.M.cycles
              (S.total c))
          r.M.stats;
        match Sz.critical_decrement sz with
        | None -> Alcotest.failf "%s: no critical channel" (label "probe")
        | Some (kind, probe_cfg) when Ch.capacity probe_cfg kind = 0 ->
          let cname = Ch.name kind in
          (* validation rejects the config... *)
          (match Dae_sim.Config.validate probe_cfg with
          | () ->
            Alcotest.failf "%s: capacity 0 passed Config.validate"
              (label cname)
          | exception Invalid_argument _ -> ());
          (* ...and the analyzer proves the deadlock statically *)
          (match Sz.analyze ~cfg:probe_cfg p with
          | Ok sz' ->
            check Alcotest.bool
              (label (cname ^ " static deadlock at min-1"))
              true (Sz.deadlocks sz')
          | Error _ ->
            Alcotest.failf "%s: segment budget exceeded" (label "reanalyze"))
        | Some _ -> ())
    modes

(* --- the verdict rule, on hand-built outcomes -------------------------------- *)

let test_violations () =
  let sz =
    match
      Sz.analyze ~cfg:Dae_sim.Config.default
        (P.compile ~mode:P.Spec ((suite_kernel "thr").Kernels.build ()))
    with
    | Ok sz -> sz
    | Error _ -> Alcotest.fail "thr: segment budget exceeded"
  in
  let kind =
    match sz.Sz.critical with
    | Some kind -> kind
    | None -> Alcotest.fail "thr: no critical channel"
  in
  let verdict what broken v_min capacity outcome =
    check Alcotest.int what broken
      (List.length
         (Sz.violations
            {
              Sz.v_min;
              v_probe =
                Some
                  { Sz.p_kind = kind; p_capacity = capacity; p_outcome = outcome };
            }))
  in
  let fits = Ok (100, 200) and stuck = Error "timing deadlock" in
  verdict "capacity 0 deadlocks" 0 fits 0 stuck;
  verdict "capacity 1 runs no faster" 0 fits 1 (Ok 100);
  verdict "capacity 1 deadlocks" 0 fits 1 stuck;
  verdict "deadlock at the minima" 1 stuck 0 stuck;
  verdict "cycles above the bound" 1 (Ok (300, 200)) 0 stuck;
  verdict "capacity 0 completes" 1 fits 0 (Ok 150);
  verdict "capacity 1 runs faster" 1 fits 1 (Ok 90)

(* --- what validate records ---------------------------------------------------- *)

let test_validate_records () =
  let k = suite_kernel "thr" in
  let plan = R.plan M.Spec (k.Kernels.build ()) in
  let sz =
    match Sz.analyze ~cfg:Dae_sim.Config.default (Option.get (R.pipeline plan))
    with
    | Ok sz -> sz
    | Error _ -> Alcotest.fail "thr: segment budget exceeded"
  in
  let prepared =
    R.prepare plan
      ~invocations:(k.Kernels.invocations ())
      ~mem:(k.Kernels.init_mem ())
  in
  let v = Sz.validate sz prepared in
  (* the minima: this replay's cycles and the bound of its timelines *)
  let r = R.simulate ~collect:true ~cfg:sz.Sz.min_cfg prepared in
  check
    (Alcotest.result (Alcotest.pair Alcotest.int Alcotest.int) Alcotest.string)
    "v_min" (Ok (r.M.cycles, Sz.bound_of_timelines sz r.M.timelines)) v.Sz.v_min;
  (* the probe: the critical channel, one below its class minimum *)
  match (sz.Sz.critical, v.Sz.v_probe) with
  | Some kind, Some p ->
    check Alcotest.string "probe channel" (Ch.name kind) (Ch.name p.Sz.p_kind);
    check Alcotest.int "probe capacity"
      (Ch.capacity sz.Sz.min_cfg kind - 1)
      p.Sz.p_capacity;
    check Alcotest.bool "capacity-0 probe deadlocks" true
      (p.Sz.p_capacity > 0 || Result.is_error p.Sz.p_outcome);
    (* a probe that beats the minima is reported against its channel and
       capacity *)
    let faster = Ok (r.M.cycles - 1) in
    let where = Fmt.str "%s at capacity %d" (Ch.name kind) p.Sz.p_capacity in
    (match
       Sz.violations { v with Sz.v_probe = Some { p with Sz.p_outcome = faster } }
     with
    | [ msg ] ->
      check Alcotest.bool ("names the probe: " ^ msg) true
        (String.starts_with ~prefix:where msg)
    | msgs ->
      Alcotest.failf "expected one violation, got %d" (List.length msgs))
  | None, _ -> Alcotest.fail "thr: no critical channel"
  | Some _, None -> Alcotest.fail "thr: critical channel but no probe"

(* --- Config.validate: the satellite contract --------------------------------- *)

let test_config_validate () =
  let d = Dae_sim.Config.default in
  Dae_sim.Config.validate d;
  let bad =
    [
      ("load_queue_size", { d with Dae_sim.Config.load_queue_size = 0 });
      ("store_queue_size", { d with Dae_sim.Config.store_queue_size = -1 });
      ( "request_fifo_capacity",
        { d with Dae_sim.Config.request_fifo_capacity = 0 } );
      ("value_fifo_capacity", { d with Dae_sim.Config.value_fifo_capacity = 0 });
      ( "store_value_fifo_capacity",
        { d with Dae_sim.Config.store_value_fifo_capacity = -3 } );
      ("fifo_latency", { d with Dae_sim.Config.fifo_latency = 0 });
      ("memory_load_latency", { d with Dae_sim.Config.memory_load_latency = 0 });
      ( "memory_store_latency",
        { d with Dae_sim.Config.memory_store_latency = 0 } );
      ("forward_latency", { d with Dae_sim.Config.forward_latency = 0 });
      ("alu_latency", { d with Dae_sim.Config.alu_latency = 0 });
      ("branch_latency", { d with Dae_sim.Config.branch_latency = -2 });
      ("unit_ii", { d with Dae_sim.Config.unit_ii = 0 });
      ("vector_width", { d with Dae_sim.Config.vector_width = 0 });
    ]
  in
  List.iter
    (fun (what, cfg) ->
      match Dae_sim.Config.validate cfg with
      | () -> Alcotest.failf "%s: expected Invalid_argument" what
      | exception Invalid_argument msg ->
        let contains s sub =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool
          (Printf.sprintf "%s named in %S" what msg)
          true (contains msg what))
    bad

let test_entry_points_validate () =
  let k = suite_kernel "thr" in
  let cfg = { Dae_sim.Config.default with Dae_sim.Config.fifo_latency = 0 } in
  (match
     M.simulate ~cfg M.Spec (k.Kernels.build ())
       ~invocations:(k.Kernels.invocations ())
       ~mem:(k.Kernels.init_mem ())
   with
  | (_ : M.result) -> Alcotest.fail "Machine.simulate accepted fifo_latency 0"
  | exception Invalid_argument _ -> ());
  let tr u = Dae_sim.Trace.empty u in
  match
    Dae_sim.Timing.run_units ~cfg ~subscribers:[]
      [| tr Dae_sim.Trace.Agu; tr Dae_sim.Trace.Cu |]
  with
  | (_ : Dae_sim.Timing.result) ->
    Alcotest.fail "Timing.run_units accepted fifo_latency 0"
  | exception Invalid_argument _ -> ()

(* --- qcheck: the same soundness statement on randomized kernels --------------- *)

let gen_sizing_sound (g : G.t) =
  List.for_all
    (fun (_, arch) ->
      match R.plan arch (Dae_ir.Func.clone g.G.func) with
      | exception P.Compile_error _ -> true
      | plan -> (
        match
          Sz.analyze ~cfg:Dae_sim.Config.default
            (Option.get (R.pipeline plan))
        with
        | Error _ -> true (* analyzer declines past its segment budget *)
        | Ok sz ->
          (not (Sz.deadlocks sz))
          && (sz.Sz.channels = [] || sz.Sz.critical <> None)
          &&
          let v =
            Sz.validate sz
              (R.prepare plan ~invocations:[ g.G.args ] ~mem:(g.G.mem ()))
          in
          Sz.violations v = [] && (v.Sz.v_probe <> None || sz.Sz.channels = [])
        ))
    modes

let qcheck_props =
  let open QCheck in
  let gen_seed = small_nat in
  [
    Test.make ~name:"analyzer minimums are safe, min-1 is the boundary"
      ~count:40 gen_seed
      (fun seed -> gen_sizing_sound (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, with stores on several arrays" ~count:15 gen_seed
      (fun seed ->
        gen_sizing_sound (Fixtures.gen_cfg_multi ~inner_loops:false ~seed ()));
  ]

let () =
  Alcotest.run "sizing"
    [
      ( "config validate",
        [
          tc "rejects non-positive knobs by name" `Quick test_config_validate;
          tc "enforced at the Machine/Timing entry points" `Quick
            test_entry_points_validate;
        ] );
      ( "test-suite kernels",
        List.map
          (fun (k : Kernels.t) ->
            tc k.Kernels.name `Quick (test_kernel k.Kernels.name))
          (Kernels.test_suite ()) );
      ( "verdict",
        [
          tc "each rule, passing and broken" `Quick test_violations;
          tc "validate records both replays" `Quick test_validate_records;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
