(* Integration tests over the bundled benchmark programs: every
   workload parses, classifies to the paper's parallelism kind, and
   expands; the fast ones are executed end-to-end (original vs expanded
   vs simulated-parallel outputs must be identical). *)

open Minic

let load (w : Workloads.Workload.t) =
  let p =
    Typecheck.parse_and_check ~file:w.Workloads.Workload.name
      w.Workloads.Workload.source
  in
  let lids = p.Ast.parallel_loops in
  let analyses = List.map (Privatize.Analyze.analyze p) lids in
  (p, lids, analyses)

(* Per workload: the digest of each loop's profiled graph
   ([Graph_dump.digest]) and the pre-pass decision at 2 domains. *)
let pinned =
  [
    ( "dijkstra",
      ( [ (8, "92aeb7e9b2587081bb7d03e1a2ca92ba") ],
        [ (8, "replicated (allocates inside the loop body)") ] ) );
    ( "md5",
      ( [ (7, "cf0dc612fc29e4744cc4893a02ff369e") ],
        [ (7, "distributed") ] ) );
    ( "mpeg2-encoder",
      ( [ (12, "eda7c18a1e02d2dd2bd57bdcfc4b69bb") ],
        [ (12, "distributed") ] ) );
    ( "mpeg2-decoder",
      ( [ (15, "f6e2b6838ba1168ca7cba2761c439f29") ],
        [ (15, "distributed") ] ) );
    ( "h263-encoder",
      ( [ (10, "fa07754cd4a08972f32f5631357e58b9");
          (11, "2e456a3649c34a42edcd368075d0df7c") ],
        [ (10, "distributed");
          (11, "distributed") ] ) );
    ( "256.bzip2",
      ( [ (17, "917cbdf1353cc56512a4fd6a4f16109b") ],
        [ (17, "replicated (loop-carried flow dependence)") ] ) );
    ( "456.hmmer",
      ( [ (11, "d020fedd1ddd24905171a7afa25f64b3") ],
        [ (11, "replicated (loop-carried flow dependence)") ] ) );
    ( "470.lbm",
      ( [ (7, "67da7875a8b3b9f3300f5ca33728cffd") ],
        [ (7, "distributed") ] ) );
  ]

let static_checks (w : Workloads.Workload.t) () =
  let p, lids, analyses = load w in
  Alcotest.(check int)
    "number of parallel loops"
    (List.length w.Workloads.Workload.loop_functions)
    (List.length lids);
  (* parallelism kind matches the paper's Table 4 *)
  let kinds =
    List.map
      (fun (a : Privatize.Analyze.result) ->
        match
          Privatize.Classify.parallelism_kind
            a.Privatize.Analyze.classification
        with
        | `Doall -> "DOALL"
        | `Doacross -> "DOACROSS")
      analyses
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "parallelism kind"
    [ w.Workloads.Workload.paper_parallelism ]
    kinds;
  (* expansion runs and privatizes a structure count near the paper's *)
  let res = Expand.Transform.expand_loops p analyses in
  let ours = res.Expand.Transform.privatized in
  let paper = w.Workloads.Workload.paper_privatized in
  Alcotest.(check bool)
    (Printf.sprintf "privatized count %d within 2 of paper's %d" ours paper)
    true
    (abs (ours - paper) <= 2);
  (* the profiler's graphs and the pre-pass decisions stay exactly as
     pinned *)
  let graphs, decisions = List.assoc w.Workloads.Workload.name pinned in
  Alcotest.(check (list (pair int string)))
    "graph digests" graphs
    (List.map2
       (fun lid (a : Privatize.Analyze.result) ->
         ( lid,
           Graph_dump.digest
             a.Privatize.Analyze.profile.Depgraph.Profiler.graph ))
       lids analyses);
  Alcotest.(check (list (pair int string)))
    "pre-pass decisions" decisions
    (List.map
       (fun (lid, d) -> (lid, Domexec.Exec.decision_to_string d))
       (Domexec.Exec.prepass_decisions ~domains:2
          res.Expand.Transform.transformed res.Expand.Transform.plan lids));
  (* loops dominate execution like Table 4's %time column *)
  let prof_loop =
    List.fold_left
      (fun acc (a : Privatize.Analyze.result) ->
        acc
        + a.Privatize.Analyze.profile.Depgraph.Profiler.graph
            .Depgraph.Graph.loop_cycles)
      0 analyses
  in
  let total =
    (List.hd analyses).Privatize.Analyze.profile.Depgraph.Profiler.graph
      .Depgraph.Graph.total_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "loops are >2/3 of runtime (%d/%d)" prof_loop total)
    true
    (float_of_int prof_loop > 0.66 *. float_of_int total)

let end_to_end (w : Workloads.Workload.t) () =
  let p, _, analyses = load w in
  let _, out0 = Interp.Machine.run_program p in
  let res = Expand.Transform.expand_loops p analyses in
  let specs = List.map Parexec.Sim.spec_of_analysis analyses in
  (* sequential expanded *)
  let m = Interp.Machine.load res.Expand.Transform.transformed in
  Interp.Machine.set_global_int m.Interp.Machine.st "__nthreads" 8;
  ignore (Interp.Machine.run m);
  Alcotest.(check string) "expanded sequential output" out0
    (Interp.Machine.output m.Interp.Machine.st);
  (* simulated parallel *)
  let pr =
    Parexec.Sim.run_parallel res.Expand.Transform.transformed specs ~threads:8
  in
  Alcotest.(check string) "parallel output" out0 pr.Parexec.Sim.pr_output

let () =
  let static_cases =
    List.map
      (fun w ->
        Alcotest.test_case w.Workloads.Workload.name `Slow (static_checks w))
      Workloads.Registry.all
  in
  let e2e_cases =
    (* keep the suite fast: execute the two cheapest benchmarks fully;
       the experiments binary exercises the rest *)
    List.map
      (fun name ->
        Alcotest.test_case name `Slow
          (end_to_end (Workloads.Registry.find name)))
      [ "md5"; "456.hmmer" ]
  in
  Alcotest.run "workloads"
    [ ("static", static_cases); ("end-to-end", e2e_cases) ]
