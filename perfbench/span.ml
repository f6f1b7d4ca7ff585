(* Outside-in host-time tracer. The benchmark wraps each call it makes into
   a layer's public function in [span]; nothing inside lib/ is
   instrumented. Spans stay in memory: per-name aggregates always, and the
   finished spans themselves only when a Chrome-trace export was asked
   for. Self time is a span's duration minus the part its child spans
   cover; self allocation likewise. Disabled (the default), [span] is one
   branch and the call, so the untraced run measures the program alone. *)

let enabled = ref false

type stat = {
  mutable calls : int;
  mutable self_ns : int;
  mutable self_words : float;  (** minor-heap words allocated *)
  mutable total_ns : int;
}

type frame = {
  f_name : string;
  f_id : int;
  f_parent : int;
  f_start : int;
  f_words : float;
  mutable f_child_ns : int;
  mutable f_child_words : float;
}

type finished = {
  s_name : string;
  s_id : int;
  s_parent : int;
  s_start : int;
  s_end : int;
  s_job : string;
}

let stats : (string, stat) Hashtbl.t = Hashtbl.create 64
let stack : frame list ref = ref []
let next_id = ref 0
let job = ref ""

(* Chrome-trace export: finished spans, newest first; [None] keeps only
   the aggregates (a round makes tens of thousands of spans). *)
let kept : finished list ref option ref = ref None

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let close fr =
  let stop = now_ns () and words = Gc.minor_words () in
  let dur = stop - fr.f_start and alloc = words -. fr.f_words in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  let st =
    match Hashtbl.find_opt stats fr.f_name with
    | Some st -> st
    | None ->
      let st = { calls = 0; self_ns = 0; self_words = 0.; total_ns = 0 } in
      Hashtbl.add stats fr.f_name st;
      st
  in
  st.calls <- st.calls + 1;
  st.total_ns <- st.total_ns + dur;
  st.self_ns <- st.self_ns + dur - fr.f_child_ns;
  st.self_words <- st.self_words +. alloc -. fr.f_child_words;
  (match !stack with
  | parent :: _ ->
    parent.f_child_ns <- parent.f_child_ns + dur;
    parent.f_child_words <- parent.f_child_words +. alloc
  | [] -> ());
  match !kept with
  | Some l ->
    l :=
      {
        s_name = fr.f_name;
        s_id = fr.f_id;
        s_parent = fr.f_parent;
        s_start = fr.f_start;
        s_end = stop;
        s_job = !job;
      }
      :: !l
  | None -> ()

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let fr =
      {
        f_name = name;
        f_id = id;
        f_parent = (match !stack with p :: _ -> p.f_id | [] -> -1);
        f_start = now_ns ();
        f_words = Gc.minor_words ();
        f_child_ns = 0;
        f_child_words = 0.;
      }
    in
    stack := fr :: !stack;
    Fun.protect ~finally:(fun () -> close fr) f
  end

(* Tag the spans of one job (kernel × arch × config) with its key. *)
let with_job key f =
  if not !enabled then f ()
  else begin
    let outer = !job in
    job := key;
    Fun.protect ~finally:(fun () -> job := outer) f
  end

let find name = Hashtbl.find_opt stats name

(* Work counts recorded at the same boundaries (events replayed, steps
   interpreted, deadlocks), so per-unit costs are measured where the work
   happens. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let add name n =
  if !enabled then
    Hashtbl.replace counts name
      (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let count name = Option.value ~default:0 (Hashtbl.find_opt counts name)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path =
  match !kept with
  | None -> ()
  | Some l ->
    let oc = open_out path in
    let t0 = List.fold_left (fun m s -> min m s.s_start) max_int !l in
    let us ns = float_of_int (ns - t0) /. 1e3 in
    output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
           %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
           \"job\": %s}}"
          (if i = 0 then "" else ",\n")
          (json_string s.s_name) (us s.s_start)
          (us s.s_end -. us s.s_start)
          s.s_id s.s_parent (json_string s.s_job))
      (List.rev !l);
    output_string oc "\n]}\n";
    close_out oc
