(* Dynamic interference-witness search: see leak.mli.

   The candidate discovery is the load-bearing idea. The ORACLE trace
   filter can identify killed *stores* (k-th request pairs with k-th
   value/poison), but squashed speculative loads are indistinguishable in
   the event stream — so instead of reconstructing kill reachability we
   diff against the golden interpreter's read set: every cell the machine
   load-requested that the golden run never read is architecturally dead
   by construction, and flipping it provably preserves every golden
   result. Whatever still diverges is leakage. *)

module M = Dae_sim.Machine
module R = Dae_sim.Retime
module Cfg = Dae_sim.Config
module Trace = Dae_sim.Trace
module E = Dae_sim.Exec
module Interp = Dae_ir.Interp

type outcome = R.status = Cycles of int | Deadlock

type divergence = {
  d_cfg : string;
  d_base : outcome;
  d_flip : outcome;
  d_cycles_differ : bool;
  d_stats_differ : bool;
}

type witness = {
  w_arr : string;
  w_idx : int;
  w_base : int;
  w_flip : int;
  w_digest_differs : bool;
  w_divs : divergence list;
}

type t = {
  l_arch : M.arch;
  l_reads : int;
  l_candidates : int;
  l_probed : int;
  l_skipped : int;
  l_witnesses : witness list;
}

let found t = t.l_witnesses <> []

let default_points =
  [
    ("scratchpad", Cfg.default);
    ( "cache",
      { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom } );
  ]

(* the golden read set over the whole invocation sequence, memory threaded
   through exactly as the machine threads it *)
let golden_reads f ~invocations ~mem =
  let m = Interp.Memory.copy mem in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun args ->
      let r = Interp.run (Dae_ir.Func.clone f) ~args ~mem:m in
      List.iter
        (fun (_, arr, idx, _) -> Hashtbl.replace seen (arr, idx) ())
        (Interp.loads r))
    invocations;
  seen

(* every distinct cell the machine issued a load request for, from the
   collected per-invocation traces (ORACLE: post-filter, loads survive) *)
let machine_reads arch f ~invocations ~mem =
  let r =
    M.simulate ~collect:true arch (Dae_ir.Func.clone f) ~invocations
      ~mem:(Interp.Memory.copy mem)
  in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (tl : M.timeline) ->
      List.iter
        (fun tr ->
          Trace.fold
            (fun () tr k ->
              if Trace.tag tr k = Trace.t_send_ld then
                Hashtbl.replace seen
                  (Trace.arr_name tr k, Trace.payload tr k)
                  ())
            () tr)
        [ tl.M.t_agu; tl.M.t_cu ])
    r.M.timelines;
  seen

let replay prepared cfg =
  R.classify (fun () -> R.simulate ~validate:false ~cfg prepared)

(* the two final memories must agree everywhere except the flipped cell —
   the dynamic confirmation that the cell really is architecturally dead *)
let pure ~arr ~idx base_mem flip_mem =
  let fm' = Interp.Memory.copy flip_mem in
  (try Interp.Memory.set fm' arr idx (Interp.Memory.get base_mem arr idx)
   with Invalid_argument _ -> ());
  Interp.Memory.equal base_mem fm'

let search ?(budget = 8) ?(masks = [ 1; 8; 64 ]) ?(points = default_points) arch
    f ~invocations ~mem =
  let golden = golden_reads f ~invocations ~mem in
  let machine = machine_reads arch f ~invocations ~mem in
  let candidates =
    Hashtbl.fold
      (fun ((arr, idx) as cell) () acc ->
        if Hashtbl.mem golden cell then acc
        else
          (* only in-bounds cells can be flipped in the initial image *)
          match Interp.Memory.array mem arr with
          | a when idx >= 0 && idx < Array.length a -> cell :: acc
          | _ -> acc
          | exception Invalid_argument _ -> acc)
      machine []
    |> List.sort compare
  in
  let plan = R.plan arch (Dae_ir.Func.clone f) in
  let base_prepared =
    R.prepare plan ~invocations ~mem:(Interp.Memory.copy mem)
  in
  let base_digest = R.trace_digest base_prepared in
  let probed = ref 0 and skipped = ref 0 in
  let witnesses = ref [] in
  let probe_mask (arr, idx) mask =
    let base_val = Interp.Memory.get mem arr idx in
    let flip_val = base_val lxor mask in
    let fmem = Interp.Memory.copy mem in
    Interp.Memory.set fmem arr idx flip_val;
    match R.prepare plan ~invocations ~mem:fmem with
    | exception
        ( R.Check_failed _ | E.Deadlock _ | E.Stream_mismatch _ | E.Desync _
        | Invalid_argument _ ) ->
      incr skipped;
      None
    | flip_prepared ->
      let digest_differs = R.trace_digest flip_prepared <> base_digest in
      let divs = ref [] in
      let ok = ref true in
      List.iter
        (fun (label, cfg) ->
          let b = replay base_prepared cfg and fl = replay flip_prepared cfg in
          (* a deadlocked point has no final memory to compare *)
          if b.R.status <> Deadlock && fl.R.status <> Deadlock
             && not
                  (pure ~arr ~idx (R.final_memory base_prepared)
                     (R.final_memory flip_prepared))
          then ok := false
          else begin
            let cycles_differ = b.R.status <> fl.R.status in
            (* a deadlocked point has an empty partition *)
            let stats_differ = b.R.stats <> fl.R.stats in
            if cycles_differ || stats_differ then
              divs :=
                {
                  d_cfg = label;
                  d_base = b.R.status;
                  d_flip = fl.R.status;
                  d_cycles_differ = cycles_differ;
                  d_stats_differ = stats_differ;
                }
                :: !divs
          end)
        points;
      if not !ok then begin
        incr skipped;
        None
      end
      else if digest_differs || !divs <> [] then
        Some
          {
            w_arr = arr;
            w_idx = idx;
            w_base = base_val;
            w_flip = flip_val;
            w_digest_differs = digest_differs;
            w_divs = List.rev !divs;
          }
      else None
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  List.iter
    (fun cell ->
      incr probed;
      (* keep trying masks past a digest-only hit: a small flip always
         perturbs the recorded request address, but only a flip that
         crosses a cache line or set can move the timing, and that is the
         stronger witness worth reporting *)
      let rec try_masks best = function
        | [] -> Option.iter (fun w -> witnesses := w :: !witnesses) best
        | mask :: rest -> (
          match probe_mask cell mask with
          | Some w when w.w_divs <> [] -> witnesses := w :: !witnesses
          | Some w -> try_masks (if best = None then Some w else best) rest
          | None -> try_masks best rest)
      in
      try_masks None masks)
    (take budget candidates);
  {
    l_arch = arch;
    l_reads = Hashtbl.length machine;
    l_candidates = List.length candidates;
    l_probed = !probed;
    l_skipped = !skipped;
    l_witnesses = List.rev !witnesses;
  }

let pp_outcome ppf = function
  | Cycles c -> Fmt.pf ppf "%d cycles" c
  | Deadlock -> Fmt.pf ppf "deadlock"

let pp_div ppf d =
  Fmt.pf ppf "%s: %a vs %a%s" d.d_cfg pp_outcome d.d_base pp_outcome d.d_flip
    (if d.d_stats_differ && not d.d_cycles_differ then " (stalls differ)"
     else if d.d_stats_differ then ", stalls differ"
     else "")

let pp ppf (t : t) =
  Fmt.pf ppf
    "witness search (%s): %d cells read, %d architecturally dead, %d \
     probed, %d skipped, %d witness%s@."
    (M.arch_name t.l_arch) t.l_reads t.l_candidates t.l_probed t.l_skipped
    (List.length t.l_witnesses)
    (if List.length t.l_witnesses = 1 then "" else "es");
  List.iter
    (fun w ->
      let parts =
        (if w.w_digest_differs then [ "trace digests diverge" ] else [])
        @ List.map (Fmt.str "%a" pp_div) w.w_divs
      in
      Fmt.pf ppf "  %s[%d] %d->%d: %s@." w.w_arr w.w_idx w.w_base w.w_flip
        (String.concat "; " parts))
    t.l_witnesses
