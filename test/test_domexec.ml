(* Tests for the real-multicore domain executor: the Chase-Lev deque's
   laws (sequential model + multi-domain stress), the scheduler's
   determinism against the sequential original on every workload and
   layout, induction delta-merging, replication fallbacks, and the
   steal counter under imbalanced chunking.

   Parallel runs use [force:true] so the scheduler path is exercised
   even on a 1-core host (domains are correct on any core count, just
   not faster). *)

open Minic

(* ------------------------------------------------------------------ *)
(* Deque laws                                                          *)
(* ------------------------------------------------------------------ *)

type op = Push | Pop | Steal

let gen_ops : op list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency [ (3, return Push); (2, return Pop); (2, return Steal) ]))

let show_ops ops =
  String.concat ""
    (List.map (function Push -> "u" | Pop -> "o" | Steal -> "s") ops)

(* Single-threaded there is no contention, so a [Steal_lost] can only
   come from the owner's own last-element pop racing itself — retrying
   resolves it immediately. *)
let rec steal_opt q =
  match Domexec.Deque.steal q with
  | Domexec.Deque.Stolen v -> Some v
  | Domexec.Deque.Steal_empty -> None
  | Domexec.Deque.Steal_lost -> steal_opt q

(* Single-threaded, the deque must behave exactly like a two-ended
   list: push/pop at the bottom, steal at the top. No task is ever
   lost or duplicated. *)
let deque_model_law =
  QCheck.Test.make ~count:500 ~name:"deque matches two-ended list model"
    (QCheck.make gen_ops ~print:show_ops) (fun ops ->
      let q = Domexec.Deque.create ~capacity:256 () in
      (* model: head = top (steal side), last = bottom (push/pop side) *)
      let model = ref [] in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push ->
            Domexec.Deque.push q !next;
            model := !model @ [ !next ];
            incr next
          | Pop ->
            let expect =
              match List.rev !model with
              | [] -> None
              | last :: rest ->
                model := List.rev rest;
                Some last
            in
            if Domexec.Deque.pop q <> expect then ok := false
          | Steal ->
            let expect =
              match !model with
              | [] -> None
              | top :: rest ->
                model := rest;
                Some top
            in
            if steal_opt q <> expect then ok := false)
        ops;
      (* drain: everything still in the model comes back, in order *)
      List.iter (fun v -> if steal_opt q <> Some v then ok := false) !model;
      if Domexec.Deque.pop q <> None then ok := false;
      !ok)

let steal_if_law =
  QCheck.Test.make ~count:200 ~name:"steal_if only takes matching heads"
    QCheck.(make Gen.(list_size (int_range 1 50) (int_range 0 100)))
    (fun items ->
      let q = Domexec.Deque.create ~capacity:64 () in
      List.iter (Domexec.Deque.push q) items;
      let pred v = v mod 2 = 0 in
      match (Domexec.Deque.steal_if pred q, items) with
      | Domexec.Deque.Steal_empty, top :: _ -> not (pred top)
      | Domexec.Deque.Stolen v, top :: _ -> pred v && v = top
      | Domexec.Deque.Steal_empty, [] -> true
      | Domexec.Deque.Stolen _, [] -> false
      | Domexec.Deque.Steal_lost, _ -> false (* no contention here *))

(* Owner pushes and pops at the bottom while [nthieves] thief domains
   steal from the top: every item is seen exactly once, and a lost CAS
   ([Steal_lost]) never loses the element itself — the thieves retry
   and the drain below accounts for every item. With four thieves the
   top-end CAS is under real contention, so [Steal_lost] is exercised,
   not just represented. *)
let stress_no_lost_or_duplicated ~nthieves () =
  let n_items = 20000 in
  let q = Domexec.Deque.create ~capacity:32768 () in
  let owner_done = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go () =
      match Domexec.Deque.steal q with
      | Domexec.Deque.Stolen v ->
        mine := v :: !mine;
        go ()
      | Domexec.Deque.Steal_lost -> go () (* element may remain: retry *)
      | Domexec.Deque.Steal_empty ->
        if Atomic.get owner_done && Domexec.Deque.is_empty q then !mine
        else go ()
    in
    go ()
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  let owned = ref [] in
  (* push in bursts, pop a few back: exercises the bottom end against
     concurrent top-end steals, including the one-element race *)
  let i = ref 0 in
  while !i < n_items do
    let burst = min 64 (n_items - !i) in
    for k = 0 to burst - 1 do
      Domexec.Deque.push q (!i + k)
    done;
    i := !i + burst;
    for _ = 1 to 16 do
      match Domexec.Deque.pop q with
      | Some v -> owned := v :: !owned
      | None -> ()
    done
  done;
  let rec drain () =
    match Domexec.Deque.pop q with
    | Some v ->
      owned := v :: !owned;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set owner_done true;
  let stolen = Array.to_list (Array.map Domain.join thieves) in
  let seen = Array.make n_items 0 in
  List.iter
    (fun v -> seen.(v) <- seen.(v) + 1)
    (!owned @ List.concat stolen);
  Array.iteri
    (fun v c ->
      if c <> 1 then
        Alcotest.failf "item %d seen %d times (lost or duplicated)" v c)
    seen

(* ------------------------------------------------------------------ *)
(* Executor on small programs                                          *)
(* ------------------------------------------------------------------ *)

let expand src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  let lids = p.Ast.parallel_loops in
  let analyses = List.map (Privatize.Analyze.analyze p) lids in
  let res = Expand.Transform.expand_loops p analyses in
  (p, lids, res)

let run_domains ?(domains = 2) ?chunk src =
  let p, lids, res = expand src in
  let code0, out0 = Interp.Machine.run_program p in
  let r =
    Domexec.Exec.run ~domains ?chunk ~force:true
      res.Expand.Transform.transformed res.Expand.Transform.plan lids
  in
  Alcotest.(check string) "output" out0 r.Domexec.Exec.dx_output;
  Alcotest.(check int) "exit code" code0 r.Domexec.Exec.dx_exit;
  r

let first_decision (r : Domexec.Exec.result) =
  match r.Domexec.Exec.dx_loops with
  | lr :: _ -> lr.Domexec.Exec.lr_decision
  | [] -> Alcotest.fail "no parallel loop reported"

let doall_src = {|
int out[64];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) out[i] = i * 3 % 17;
  int s = 0;
  for (i = 0; i < 64; i++) s += out[i];
  printf("%d\n", s);
  return 0;
}|}

let distributes_doall () =
  let r = run_domains ~domains:2 doall_src in
  (match first_decision r with
  | Domexec.Exec.Distributed -> ()
  | Domexec.Exec.Replicated why ->
    Alcotest.failf "expected distribution, replicated: %s" why);
  Alcotest.(check int) "one merge" 1 r.Domexec.Exec.dx_merges;
  Alcotest.(check bool) "both domains ran chunks" true
    (Array.for_all (fun c -> c > 0) r.Domexec.Exec.dx_chunks_run)

(* The watchdog ticks every [watchdog_ms / 4] (15 s here); a clean
   supervised call must not wait out the tick to join it. *)
let watchdog_joins_promptly () =
  let _, lids, res = expand doall_src in
  let t0 = Unix.gettimeofday () in
  let sup =
    Domexec.Supervisor.run ~domains:2 ~force:true ~watchdog_ms:60000
      res.Expand.Transform.transformed res.Expand.Transform.plan lids
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "completed" "completed"
    (Domexec.Supervisor.outcome_to_string sup.Domexec.Supervisor.sup_outcome);
  if wall > 5. then
    Alcotest.failf "supervised call took %.1f s with a 15 s watchdog tick" wall

(* A shared counter bumped once per iteration is an induction variable:
   it must be delta-merged across domains, not write-logged (each
   domain only sees its own bumps during the loop). *)
let induction_src = {|
int hits;
int out[64];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) { out[i] = i * 3; hits = hits + 1; }
  printf("%d %d\n", hits, out[63]);
  return 0;
}|}

let delta_merges_induction () =
  let r = run_domains ~domains:4 induction_src in
  match first_decision r with
  | Domexec.Exec.Distributed -> ()
  | Domexec.Exec.Replicated why ->
    Alcotest.failf "induction loop should distribute, replicated: %s" why

(* Per-iteration output must be spliced back into sequential order. *)
let output_src = {|
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 37; i++) printf("%d:%d ", i, i * i % 11);
  printf("end\n");
  return 0;
}|}

let splices_output () = ignore (run_domains ~domains:3 ~chunk:4 output_src)

(* Allocation inside the body makes iterations unsafe to distribute
   (addresses diverge between machines): the loop must replicate and
   still produce identical output. *)
let alloc_src = {|
int out[16];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 16; i++) {
    int *p = (int *)malloc(sizeof(int) * 4);
    p[0] = i * 5;
    out[i] = p[0] + 1;
    free(p);
  }
  printf("%d\n", out[15]);
  return 0;
}|}

let replicates_on_alloc () =
  let r = run_domains ~domains:2 alloc_src in
  match first_decision r with
  | Domexec.Exec.Replicated _ -> ()
  | Domexec.Exec.Distributed ->
    Alcotest.fail "allocating loop must not be distributed"

(* A loop-carried flow dependence must be detected by the pre-pass and
   replicated (running it chunked would read stale values). *)
let carried_src = {|
int acc[33];
int main(void)
{
  int i;
  acc[0] = 1;
#pragma parallel
  for (i = 1; i < 33; i++) acc[i] = acc[i - 1] + i;
  printf("%d\n", acc[32]);
  return 0;
}|}

let replicates_on_carried_dep () =
  let r = run_domains ~domains:2 carried_src in
  match first_decision r with
  | Domexec.Exec.Replicated _ -> ()
  | Domexec.Exec.Distributed ->
    Alcotest.fail "loop-carried flow must not be distributed"

(* Every loop here is replicated before the program ends, so the
   pre-pass stops early (inside the last loop's first iteration) and
   domain 0 counts the loops instead: the reports must still give each
   outermost activation and its iterations, and nothing for the loop
   nested inside another parallel loop. *)
let counts_src = {|
int acc[40];
int out[40];
int grid[6];
void step(int k)
{
  int i;
#pragma parallel
  for (i = 1; i < 10 + k; i++) acc[i] = acc[i - 1] + i;
#pragma parallel
  for (i = 0; i < 8; i++) {
    int *p = (int *)malloc(sizeof(int) * 2);
    p[0] = i * k;
    out[i] = p[0] + 1;
    free(p);
  }
}
int main(void)
{
  int k;
  int j;
  acc[0] = 1;
  for (k = 0; k < 3; k++) step(k);
#pragma parallel
  for (k = 1; k < 6; k++) {
    grid[k] = grid[k - 1] + k;
#pragma parallel
    for (j = 0; j < 4; j++) out[j] = out[j] + grid[k];
  }
  printf("%d %d %d\n", acc[11], out[7], out[3]);
  return 0;
}|}

let counts_all_replicated () =
  let r = run_domains ~domains:2 counts_src in
  let got =
    List.map
      (fun (lr : Domexec.Exec.loop_report) ->
        ( (match lr.Domexec.Exec.lr_decision with
          | Domexec.Exec.Replicated _ -> "replicated"
          | Domexec.Exec.Distributed -> "distributed"),
          lr.Domexec.Exec.lr_invocations,
          lr.Domexec.Exec.lr_iterations ))
      r.Domexec.Exec.dx_loops
  in
  Alcotest.(check (list (triple string int int)))
    "decision, invocations, iterations per loop"
    [
      ("replicated", 3, 30);
      ("replicated", 3, 24);
      ("replicated", 1, 5);
      ("replicated", 0, 0);
    ]
    got

let zero_trip_src = {|
int n;
int out[8];
int main(void)
{
  int i;
  n = 0;
#pragma parallel
  for (i = 0; i < n; i++) out[i] = i;
  printf("%d\n", n);
  return 0;
}|}

let zero_trip () = ignore (run_domains ~domains:2 zero_trip_src)

(* ------------------------------------------------------------------ *)
(* Steal counter under imbalanced chunking                             *)
(* ------------------------------------------------------------------ *)

(* Two huge chunks on four domains: domains 2 and 3 own nothing and
   try to steal the second chunk from domain 1's deque the moment they
   enter the loop, while domain 1 must first traverse 20000 iterations
   to reach it. The race is overwhelmingly in the thieves' favor but
   not deterministic, so retry a few times and require at least one
   steal overall. Output correctness is asserted on every attempt. *)
let steal_src = {|
int out[40000];
int main(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 40000; i++) out[i] = i % 7;
  printf("%d %d\n", out[0], out[39999]);
  return 0;
}|}

let steals_under_imbalance () =
  let rec attempt k total =
    if total >= 1 then ()
    else if k = 0 then
      Alcotest.failf "no steal observed in any attempt (total %d)" total
    else
      let r = run_domains ~domains:4 ~chunk:20000 steal_src in
      attempt (k - 1) (total + r.Domexec.Exec.dx_steals)
  in
  attempt 10 0

(* ------------------------------------------------------------------ *)
(* Determinism against the oracle: every workload, every layout        *)
(* ------------------------------------------------------------------ *)

let check_workload (b : Harness.Bench_run.t)
    (res : Expand.Transform.result) ~(domains : int) : unit =
  let oracle = Lazy.force b.Harness.Bench_run.contract_oracle in
  let r =
    Domexec.Exec.run ~domains ~force:true res.Expand.Transform.transformed
      res.Expand.Transform.plan b.Harness.Bench_run.lids
  in
  Alcotest.(check string)
    "output byte-identical" oracle.Guard.Contract.o_output
    r.Domexec.Exec.dx_output;
  Alcotest.(check int)
    "exit code" oracle.Guard.Contract.o_exit r.Domexec.Exec.dx_exit;
  Guard.Contract.check_finals oracle res.Expand.Transform.plan
    r.Domexec.Exec.dx_machine

let workload_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case w.Workloads.Workload.name `Slow (fun () ->
          let b = Harness.Bench_run.load w in
          check_workload b b.Harness.Bench_run.expanded ~domains:2;
          (* the interleaved layout, where the transformer supports it *)
          match
            Expand.Transform.expand_loops ~mode:Expand.Plan.Interleaved
              b.Harness.Bench_run.prog b.Harness.Bench_run.analyses
          with
          | res -> check_workload b res ~domains:2
          | exception Expand.Transform.Unsupported _ -> ()))
    Workloads.Registry.all

let () =
  Alcotest.run "domexec"
    [
      ( "deque",
        [
          QCheck_alcotest.to_alcotest deque_model_law;
          QCheck_alcotest.to_alcotest steal_if_law;
          Alcotest.test_case "2-thief stress" `Quick
            (stress_no_lost_or_duplicated ~nthieves:2);
          Alcotest.test_case "4-thief contention stress" `Quick
            (stress_no_lost_or_duplicated ~nthieves:4);
        ] );
      ( "executor",
        [
          Alcotest.test_case "distributes DOALL" `Quick distributes_doall;
          Alcotest.test_case "watchdog joins promptly" `Quick
            watchdog_joins_promptly;
          Alcotest.test_case "delta-merges induction" `Quick
            delta_merges_induction;
          Alcotest.test_case "splices output" `Quick splices_output;
          Alcotest.test_case "replicates on alloc" `Quick replicates_on_alloc;
          Alcotest.test_case "replicates on carried dep" `Quick
            replicates_on_carried_dep;
          Alcotest.test_case "counts loops when all replicate" `Quick
            counts_all_replicated;
          Alcotest.test_case "zero-trip loop" `Quick zero_trip;
          Alcotest.test_case "steals under imbalance" `Quick
            steals_under_imbalance;
        ] );
      ("workloads", workload_cases);
    ]
