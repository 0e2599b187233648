(* One seeded run of the dsexpand pipeline on one workload, driven the
   way [dsexpand -w W --exec domains --domains 2] drives it, but through
   each layer's public functions so every layer can be timed from
   outside. Default chunk, retry and watchdog; no fault; a [Telemetry]
   sink only in the traced pass.

   The run prints one JSON object of raw samples, counts and spans as
   its last stdout line; run.py turns it into the benchmark's metrics.

   Usage: pipebench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
            [--cold-only] *)

open Minic

type expect = Distributed | Replicated

type workload = {
  name : string;
  program : string;  (** name in [Workloads.Registry] *)
  expect : expect;  (** the pre-pass verdict every parallel loop must get *)
}

(* Why these three: see README.md next to this file. *)
let workloads =
  [
    { name = "md5-doall"; program = "md5"; expect = Distributed };
    { name = "h263-twoloop"; program = "h263-encoder"; expect = Distributed };
    { name = "bzip2-replicated"; program = "256.bzip2"; expect = Replicated };
  ]

let domains = 2
let sim_threads = 8

(* Warm loop floor: the discarded warm-up iteration plus one kept, even
   when a single iteration outlasts --seconds. *)
let min_iterations = 2

(* Sequential runs are cheap next to a supervised call; each iteration
   repeats them for at least this long so seq_ms gets enough samples. *)
let seq_share_s = 0.5
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Seeding: the workload's single srand(N) literal is the seed. *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go from

(* Byte range of the literal inside the source's only [srand(...)]. *)
let srand_site src =
  let key = "srand(" in
  let i = find_sub src key 0 in
  if i < 0 || find_sub src key (i + 1) >= 0 then
    failwith "workload source must call srand exactly once";
  let a = i + String.length key in
  let b = String.index_from src a ')' in
  (a, b, int_of_string (String.trim (String.sub src a (b - a))))

let with_srand src v =
  let a, b, _ = srand_site src in
  String.sub src 0 a ^ string_of_int v
  ^ String.sub src b (String.length src - b)

(* ------------------------------------------------------------------ *)
(* Samples, operation outcomes and determinism repeats. *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace samples name
    (Option.value ~default:[] (Hashtbl.find_opt samples name) @ [ v ])

(* Operations by kind ("pipeline", "sequential", "supervised", ...):
   attempts and failures. Every timed operation is one attempt, and its
   oracle and determinism checks are folded into it. *)
let ops : (string, int * int) Hashtbl.t = Hashtbl.create 8
let failures = ref []

let op kind checks =
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  let a, f = Option.value ~default:(0, 0) (Hashtbl.find_opt ops kind) in
  Hashtbl.replace ops kind (a + 1, if bad = [] then f else f + 1);
  List.iter (fun (what, _) -> failures := (kind ^ ":" ^ what) :: !failures) bad

let repeats : (string, int list) Hashtbl.t = Hashtbl.create 8

(* A value that must repeat exactly for a fixed seed. Records [v] and
   says whether it equals the first value recorded under [name]. *)
let det name v =
  let l = Option.value ~default:[] (Hashtbl.find_opt repeats name) in
  Hashtbl.replace repeats name (l @ [ v ]);
  ("determinism:" ^ name, match l with first :: _ -> first = v | [] -> true)

(* ------------------------------------------------------------------ *)
(* Spans, recorded only in the traced pass: the benchmark's own spans
   around layer calls, and the libraries' phase spans (phase.profile,
   phase.classify, phase.plan, phase.expand), which arrive through an
   in-memory [Telemetry] sink. Both are timed on the benchmark's clock
   and carry the minor words allocated inside them. *)

type span = {
  sid : int;
  sname : string;
  sparent : int;  (** 0 = root *)
  st0 : float;
  mutable st1 : float;
  sw0 : float;
  mutable sw1 : float;
}

let tracing = ref false
let spans = ref []
let open_spans = ref []

let open_span name =
  let s =
    {
      sid = List.length !spans + List.length !open_spans + 1;
      sname = name;
      sparent = (match !open_spans with p :: _ -> p.sid | [] -> 0);
      st0 = now ();
      st1 = 0.;
      sw0 = Gc.minor_words ();
      sw1 = 0.;
    }
  in
  open_spans := s :: !open_spans

let close_span () =
  match !open_spans with
  | s :: rest ->
    s.st1 <- now ();
    s.sw1 <- Gc.minor_words ();
    open_spans := rest;
    spans := s :: !spans
  | [] -> ()

let span name f =
  if not !tracing then f ()
  else begin
    open_span name;
    Fun.protect f ~finally:close_span
  end

(* Installed around the traced compile step. Only wall-clock span edges
   are layer calls; counters and observations are dropped. *)
let phase_sink =
  {
    Telemetry.Sink.emit =
      (function
      | Telemetry.Event.Span_begin { name; clock = Telemetry.Event.Wall; _ }
        ->
        open_span name
      | Telemetry.Event.Span_end { clock = Telemetry.Event.Wall; _ } ->
        close_span ()
      | _ -> ());
    flush = ignore;
  }

let with_phase_spans f =
  if !tracing then Telemetry.Sink.with_sink phase_sink f else f ()

(* ------------------------------------------------------------------ *)
(* The compile step: parse, analyze every parallel loop, expand. *)

type compiled = {
  prog : Ast.program;
  lids : Ast.lid list;
  analyses : Privatize.Analyze.result list;
  res : Expand.Transform.result;
}

let compile src =
  let prog =
    span "minic.parse" (fun () ->
        Typecheck.parse_and_check ~file:"workload.c" src)
  in
  let lids = prog.Ast.parallel_loops in
  let analyses =
    List.map
      (fun lid ->
        span "privatize.analyze" (fun () -> Privatize.Analyze.analyze prog lid))
      lids
  in
  let res =
    span "expand.expand_loops" (fun () ->
        Expand.Transform.expand_loops prog analyses)
  in
  { prog; lids; analyses; res }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let graph_of (a : Privatize.Analyze.result) =
  a.Privatize.Analyze.profile.Depgraph.Profiler.graph

(* Accesses the profiler observed, over every loop's profiling run. *)
let accesses c =
  sum
    (fun (a : Privatize.Analyze.result) ->
      let s = a.Privatize.Analyze.profile.Depgraph.Profiler.stats in
      s.Interp.Machine.n_loads + s.Interp.Machine.n_stores)
    c.analyses

let edges c =
  sum (fun a -> Hashtbl.length (graph_of a).Depgraph.Graph.edges) c.analyses

let private_classes c =
  sum
    (fun (a : Privatize.Analyze.result) ->
      List.length
        (List.filter
           (fun (_, v, _) -> v = Privatize.Classify.Private)
           a.Privatize.Analyze.classification.Privatize.Classify.classes))
    c.analyses

(* ------------------------------------------------------------------ *)
(* Checks against the sequential oracle of the seeded source. *)

let finals_ok oracle c m =
  match Guard.Contract.check_finals oracle c.res.Expand.Transform.plan m with
  | () -> true
  | exception Guard.Violation.Violation _ -> false

let decisions_ok w (r : Domexec.Exec.result) =
  List.length r.Domexec.Exec.dx_loops > 0
  && List.for_all
       (fun (lr : Domexec.Exec.loop_report) ->
         match (w.expect, lr.Domexec.Exec.lr_decision) with
         | Distributed, Domexec.Exec.Distributed -> true
         | Replicated, Domexec.Exec.Replicated _ -> true
         | _ -> false)
       r.Domexec.Exec.dx_loops

(* Output, exit code and loop decisions; final globals are checked
   apart, because the pipeline times that check as its own step. *)
let result_ok w (oracle : Guard.Contract.oracle) (r : Domexec.Exec.result) =
  String.equal r.Domexec.Exec.dx_output oracle.Guard.Contract.o_output
  && r.Domexec.Exec.dx_exit = oracle.Guard.Contract.o_exit
  && r.Domexec.Exec.dx_domains = domains
  && decisions_ok w r

let supervise ?trace c =
  Domexec.Supervisor.run ~domains ~force:true ?trace
    c.res.Expand.Transform.transformed c.res.Expand.Transform.plan c.lids

let completed (sup : Domexec.Supervisor.t) =
  match
    (sup.Domexec.Supervisor.sup_outcome, sup.Domexec.Supervisor.sup_result)
  with
  | Domexec.Supervisor.Completed, Some r -> Some r
  | _ -> None

let seq_ok (oracle : Guard.Contract.oracle) m code =
  code = oracle.Guard.Contract.o_exit
  && String.equal
       (Interp.Machine.output m.Interp.Machine.st)
       oracle.Guard.Contract.o_output

(* ------------------------------------------------------------------ *)
(* The pipeline [dsexpand --exec domains] runs, timed as one pass. *)

type pass = {
  c : compiled;
  oracle : Guard.Contract.oracle;
  seq_cycles : int;
  setup_s : float;
  total_s : float;
}

let pipeline ?trace w src =
  span "pipeline" @@ fun () ->
  let t0 = now () in
  let c = with_phase_spans (fun () -> compile src) in
  let setup_s = now () -. t0 in
  let oracle =
    span "guard.oracle" (fun () -> Guard.Contract.oracle_of c.prog [])
  in
  let m = span "interp.load" (fun () -> Interp.Machine.load c.prog) in
  let code = span "interp.run" (fun () -> Interp.Machine.run m) in
  let sup = span "domexec.supervisor" (fun () -> supervise ?trace c) in
  let finals =
    span "guard.check_finals" (fun () ->
        match sup.Domexec.Supervisor.sup_result with
        | Some r -> finals_ok oracle c r.Domexec.Exec.dx_machine
        | None -> false)
  in
  let total_s = now () -. t0 in
  let seq_cycles = m.Interp.Machine.st.Interp.Machine.cycles in
  op "pipeline"
    [
      ("sequential", seq_ok oracle m code);
      ( "supervised",
        match completed sup with Some r -> result_ok w oracle r | None -> false
      );
      ("finals", finals);
      det "depgraph.accesses" (accesses c);
      det "depgraph.edges" (edges c);
      det "interp.cycles" seq_cycles;
    ];
  { c; oracle; seq_cycles; setup_s; total_s }

(* ------------------------------------------------------------------ *)
(* Warm timing loop, one supervised call per iteration between
   sequential runs. The first sequential run, the first supervised call
   and the first unsupervised call are warm-up and discarded; the cold
   cost is what pipeline_s measures. *)

let measure ~seconds ~with_exec w p =
  let c = p.c and oracle = p.oracle in
  let transformed = c.res.Expand.Transform.transformed
  and plan = c.res.Expand.Transform.plan in
  let deadline = now () +. seconds in
  let i = ref 0 and seq_runs = ref 0 in
  while !i < min_iterations || now () < deadline do
    let keep_add name v = if !i > 0 then add name v in
    (* sequential baseline: load + run of the original *)
    let t_iter = now () in
    while !seq_runs = 0 || now () -. t_iter < seq_share_s do
      Gc.full_major ();
      let t0 = now () in
      let m = Interp.Machine.load c.prog in
      let t1 = now () in
      let w1 = Gc.minor_words () in
      let code = Interp.Machine.run m in
      let t2 = now () in
      let words = Gc.minor_words () -. w1 in
      let cycles = m.Interp.Machine.st.Interp.Machine.cycles in
      op "sequential" [ ("oracle", seq_ok oracle m code); det "interp.cycles" cycles ];
      if !seq_runs > 0 then begin
        add "seq_ms" ((t2 -. t0) *. 1e3);
        add "interp.load_ms" ((t1 -. t0) *. 1e3);
        add "interp.run_ms" ((t2 -. t1) *. 1e3);
        add "interp.minor_words_per_cycle" (words /. float_of_int cycles)
      end;
      incr seq_runs
    done;
    (* one supervised call, as the user waits for it *)
    Gc.full_major ();
    let g0 = (Gc.quick_stat ()).Gc.minor_words in
    let t0 = now () in
    let sup = supervise c in
    let t1 = now () in
    let g1 = (Gc.quick_stat ()).Gc.minor_words in
    (match completed sup with
    | Some r ->
      op "supervised"
        [
          ("oracle", result_ok w oracle r);
          ("finals", finals_ok oracle c r.Domexec.Exec.dx_machine);
        ];
      keep_add "par_ms" ((t1 -. t0) *. 1e3);
      keep_add "domexec.run_ms" (r.Domexec.Exec.dx_wall_ns /. 1e6);
      keep_add "domexec.minor_words" (g1 -. g0);
      keep_add "domexec.merges" (float_of_int r.Domexec.Exec.dx_merges);
      keep_add "domexec.steals" (float_of_int r.Domexec.Exec.dx_steals);
      keep_add "domexec.steal_lost" (float_of_int r.Domexec.Exec.dx_steal_lost);
      keep_add "domexec.distributed_loops"
        (float_of_int
           (List.length
              (List.filter
                 (fun (lr : Domexec.Exec.loop_report) ->
                   lr.Domexec.Exec.lr_decision = Domexec.Exec.Distributed)
                 r.Domexec.Exec.dx_loops)))
    | None -> op "supervised" [ ("completed", false) ]);
    (* the same run without the supervisor *)
    if with_exec then begin
      Gc.full_major ();
      let t0 = now () in
      let r = Domexec.Exec.run ~domains ~force:true transformed plan c.lids in
      let t1 = now () in
      op "unsupervised"
        [
          ("oracle", result_ok w oracle r);
          ("finals", finals_ok oracle c r.Domexec.Exec.dx_machine);
        ];
      keep_add "domexec.exec_call_ms" ((t1 -. t0) *. 1e3);
      keep_add "domexec.prepass_load_ms"
        (((t1 -. t0) *. 1e3) -. (r.Domexec.Exec.dx_wall_ns /. 1e6))
    end;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Deterministic figures. *)

(* Figures 8 and 9 from the cache-modelled simulator, computed as
   [Harness.Bench_run] computes them: the loop speedup at [sim_threads],
   and the expanded program's sequential cycles over the original's. *)
let figures p c =
  let transformed = c.res.Expand.Transform.transformed in
  let seq = Parexec.Sim.run_sequential c.prog c.lids in
  let exp = Parexec.Sim.run_sequential transformed c.lids in
  let specs = List.map Parexec.Sim.spec_of_analysis c.analyses in
  let pr = Parexec.Sim.run_parallel transformed specs ~threads:sim_threads in
  let oracle out code =
    String.equal out p.oracle.Guard.Contract.o_output
    && code = p.oracle.Guard.Contract.o_exit
  in
  let loop_cycles l = sum snd l in
  let par = loop_cycles pr.Parexec.Sim.pr_loop in
  op "figures"
    [
      ("sequential", oracle seq.Parexec.Sim.sq_output seq.Parexec.Sim.sq_exit);
      ("expanded", oracle exp.Parexec.Sim.sq_output exp.Parexec.Sim.sq_exit);
      ("parallel", oracle pr.Parexec.Sim.pr_output pr.Parexec.Sim.pr_exit);
      det "parexec.seq_total" seq.Parexec.Sim.sq_total;
      det "parexec.expanded_seq_total" exp.Parexec.Sim.sq_total;
      det "parexec.par_loop_cycles_t8" par;
    ];
  add "expand_overhead"
    (float_of_int exp.Parexec.Sim.sq_total
    /. float_of_int seq.Parexec.Sim.sq_total);
  add "parexec.par_loop_cycles_t8" (float_of_int par);
  add "sim_speedup_t8"
    (float_of_int (loop_cycles seq.Parexec.Sim.sq_loop) /. float_of_int par)

(* ------------------------------------------------------------------ *)
(* Traced pass: the pipeline with spans on and a Domtrace recorder on
   its supervised run, right after the same pass untraced, so that both
   run warm and their difference is the cost of tracing. Kept out of
   every end-to-end timing. *)

let traced_pass w src =
  Gc.full_major ();
  let untraced = pipeline w src in
  Gc.full_major ();
  tracing := true;
  let rec_ = Domexec.Domtrace.create () in
  let p = pipeline ~trace:rec_ w src in
  (* [Expand.Plan.make] runs the points-to analysis but emits no span
     for it, so it is timed as a call of its own on the same program. *)
  span "alias.andersen" (fun () -> ignore (Alias.Andersen.analyze p.c.prog));
  tracing := false;
  add "trace.overhead_ms" ((p.total_s -. untraced.total_s) *. 1e3);
  let rep = Domexec.Domtrace.Sched_report.analyze rec_ in
  let rows = Array.to_list rep.Domexec.Domtrace.Sched_report.sr_domains in
  let n = float_of_int (max 1 (List.length rows)) in
  let total f = float_of_int (sum f rows) /. 1e6 in
  add "domexec.utilization"
    (List.fold_left
       (fun a r -> a +. Domexec.Domtrace.Sched_report.utilization r)
       0. rows
    /. n);
  add "domexec.merge_ms"
    (total (fun r -> r.Domexec.Domtrace.Sched_report.dr_merge_ns));
  add "domexec.idle_ms"
    (total (fun r -> r.Domexec.Domtrace.Sched_report.dr_idle_ns));
  add "domexec.gc_share" rep.Domexec.Domtrace.Sched_report.sr_gc_share;
  add "domexec.imbalance" rep.Domexec.Domtrace.Sched_report.sr_imbalance

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let print_result w ~srand ~default_srand =
  let fields tbl f =
    Hashtbl.fold (fun k v acc -> (k, json_list f v) :: acc) tbl []
  in
  let series = fields samples json_float
  and reps = fields repeats string_of_int in
  let span_json s =
    json_obj
      [
        ("id", string_of_int s.sid);
        ("name", Printf.sprintf "%S" s.sname);
        ("parent", string_of_int s.sparent);
        (* every span belongs to the one traced pass *)
        ("run", "1");
        ("start", json_float s.st0);
        ("end", json_float s.st1);
        ("minor_words", json_float (s.sw1 -. s.sw0));
      ]
  in
  print_endline
    (json_obj
       [
         ("workload", Printf.sprintf "%S" w.name);
         ("program", Printf.sprintf "%S" w.program);
         ("srand", string_of_int srand);
         ("default_srand", string_of_int default_srand);
         ("host_cores", string_of_int (Domain.recommended_domain_count ()));
         ("domains", string_of_int domains);
         ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
         ( "ops",
           json_obj
             (Hashtbl.fold
                (fun k (a, f) acc -> (k, json_list string_of_int [ a; f ]) :: acc)
                ops []) );
         ("failures", json_list (Printf.sprintf "%S") (List.rev !failures));
         ("samples", json_obj series);
         ("repeats", json_obj reps);
         ("spans", json_list span_json (List.rev !spans));
       ])

let run w ~seed ~seconds ~trace ~cold_only =
  let base = (Workloads.Registry.find w.program).Workloads.Workload.source in
  let _, _, default_srand = srand_site base in
  let srand =
    match seed with Some s -> s land 0x3FFFFFFF | None -> default_srand
  in
  let src = with_srand base srand in
  let p = pipeline w src in
  let c = p.c in
  add "pipeline_s" p.total_s;
  add "setup_s" p.setup_s;
  (* The heap peak of a process that has made one pass, as a
     [dsexpand --exec domains] process ends; what the warm loop and the
     figures allocate afterwards is the benchmark's, not the user's. *)
  add "peak_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.);
  if not cold_only then begin
    measure ~seconds ~with_exec:trace w p;
    (* A non-default seed must change the data the program computes on;
       the loop decisions are checked on every supervised run. *)
    if srand <> default_srand then begin
      let o0 =
        Guard.Contract.oracle_of
          (Typecheck.parse_and_check ~file:"workload.c" base)
          []
      in
      op "seed"
        [
          ( "changes-data",
            (not
               (String.equal o0.Guard.Contract.o_output
                  p.oracle.Guard.Contract.o_output))
            || Hashtbl.fold
                 (fun k v changed ->
                   changed
                   || Hashtbl.find_opt p.oracle.Guard.Contract.o_finals k
                      <> Some v)
                 o0.Guard.Contract.o_finals false );
        ]
    end;
    figures p c;
    (* a repeat, for the determinism check *)
    figures p c;
    add "depgraph.accesses" (float_of_int (accesses c));
    add "depgraph.edges" (float_of_int (edges c));
    add "privatize.private_classes" (float_of_int (private_classes c));
    add "expand.privatized" (float_of_int c.res.Expand.Transform.privatized);
    (* expand_loops runs the span optimizer by default *)
    let s = Option.get c.res.Expand.Transform.opt_stats in
    add "optim.span_stores_removed"
      (float_of_int
         (s.Optim.Spanopt.self_assigns_removed
        + s.Optim.Spanopt.dead_stores_removed));
    add "optim.loads_propagated"
      (float_of_int s.Optim.Spanopt.loads_propagated);
    add "interp.cycles" (float_of_int p.seq_cycles);
    if trace then traced_pass w src
  end;
  print_result w ~srand ~default_srand

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref false and cold_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ( "--seed",
        Arg.Int (fun s -> seed := Some s),
        "N srand seed (default: the source's)" );
      ("--seconds", Arg.Set_float seconds, "S length of the warm timing loop");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 add the traced pass" );
      ( "--cold-only",
        Arg.Set cold_only,
        " only the cold pass: no warm loop, no seed check, no \
         deterministic figures, no traced pass" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pipebench.exe --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--cold-only]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline
      ("pipebench: unknown workload; one of "
      ^ String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some w ->
    run w ~seed:!seed ~seconds:!seconds ~trace:!trace ~cold_only:!cold_only
