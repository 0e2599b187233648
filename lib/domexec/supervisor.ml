(** See the interface for the recovery model. Implementation notes:

    - Fault budgets are cumulative across attempts: [domain-crash:5]
      with a retry budget of 3 exhausts attempt 1 (3 crashes) and is
      absorbed by attempt 2 (2 crashes, then success) — exactly the
      degradation the chaos tests pin down.
    - The targeted chunk executes on exactly one domain at a time and
      distributed invocations are serialized program-wide (every
      domain walks loops in program order with a barrier at each
      exit), so the per-fault counters see no real contention; the
      mutex is there for the watchdog and for safety, not hot.
    - The watchdog runs on a systhread of the supervisor's domain and
      polls at a quarter of the deadline; it only ever sets the abort
      pill, records the diagnostic, and poisons the barrier —
      cancellation itself happens inside the workers at their next
      loop event. A thread rather than a domain on purpose: an extra
      (mostly sleeping) domain still takes part in every
      stop-the-world minor collection and inflates the workers'
      critical path by double-digit percentages; a thread costs
      nothing while it sleeps. *)

open Minic

type outcome = Completed | Recovered | Aborted of string

type t = {
  sup_result : Exec.result option;
  sup_outcome : outcome;
  sup_attempts : int;
  sup_retries : int;
  sup_crashes : int;
  sup_stalls : int;
  sup_corruptions : int;
  sup_corruptions_detected : int;
  sup_watchdog_fires : int;
  sup_steal_lost : int;
  sup_events : Guard.Diag.sup_event list;
  sup_counters : Telemetry.Counters.snapshot;
}

let outcome_to_string = function
  | Completed -> "completed"
  | Recovered -> "recovered"
  | Aborted reason -> "aborted: " ^ reason

let summary (t : t) : string =
  Printf.sprintf
    "%s (attempts=%d retries=%d crashes=%d stalls=%d corruptions=%d/%d \
     watchdog=%d steal-lost=%d)"
    (outcome_to_string t.sup_outcome)
    t.sup_attempts t.sup_retries t.sup_crashes t.sup_stalls
    t.sup_corruptions_detected t.sup_corruptions t.sup_watchdog_fires
    t.sup_steal_lost

(* All supervisor statistics live in one [Telemetry.Counters]
   aggregator (keys below), guarded by the state mutex — the [t]
   record fields, campaign entries, and [--metrics] all read from this
   single source of truth. Fault budgets are the same counters: an
   injected crash/stall is consumed by bumping its stat, so budget and
   stat cannot drift apart (corruption is the exception: attempts that
   found nothing to corrupt still consume budget, hence the separate
   [corrupt_attempts] key). *)
let k_retries = "supervisor.retries"
let k_crashes = "supervisor.crashes"
let k_stalls = "supervisor.stalls"
let k_corruptions = "supervisor.corruptions"
let k_corruptions_detected = "supervisor.corruptions_detected"
let k_watchdog = "supervisor.watchdog_fires"
let k_corrupt_attempts = "supervisor.corrupt_attempts"

type state = {
  mu : Mutex.t;
  mutable attempt : int;
  mutable events : Guard.Diag.sup_event list;  (** newest first *)
  agg : Telemetry.Counters.t;
  steal_used : int Atomic.t;
}

let record st ~domain ~loop ~chunk ~kind ~detail =
  Mutex.lock st.mu;
  st.events <-
    {
      Guard.Diag.se_attempt = st.attempt;
      se_domain = domain;
      se_loop = loop;
      se_chunk = chunk;
      se_kind = kind;
      se_detail = detail;
    }
    :: st.events;
  Mutex.unlock st.mu

let bump st key =
  Mutex.lock st.mu;
  Telemetry.Counters.bump_counter st.agg key 1;
  Mutex.unlock st.mu

let count st key =
  Mutex.lock st.mu;
  let v = Telemetry.Counters.value st.agg key in
  Mutex.unlock st.mu;
  v

(* Consume one unit of a cumulative fault budget: true (and bumped)
   while fewer than [n] units are spent, false once exhausted. *)
let take_budget st key n =
  Mutex.lock st.mu;
  let used = Telemetry.Counters.value st.agg key in
  let ok = used < n in
  if ok then Telemetry.Counters.bump_counter st.agg key 1;
  Mutex.unlock st.mu;
  ok

let rec describe_exn = function
  | Exec.Supervised_abort reason -> reason
  | Exec.Retry_exhausted ck ->
    Printf.sprintf
      "retry budget exhausted acquiring chunk %d/%d of loop %d inv %d"
      ck.Exec.ck_chunk ck.Exec.ck_nchunks ck.Exec.ck_lid ck.Exec.ck_inv
  | Exec.Log_corrupted ck ->
    Printf.sprintf "write-log corruption detected on chunk %d of loop %d inv %d"
      ck.Exec.ck_chunk ck.Exec.ck_lid ck.Exec.ck_inv
  | Exec.Chunk_lost ck ->
    Printf.sprintf "chunk %d of loop %d inv %d was never executed"
      ck.Exec.ck_chunk ck.Exec.ck_lid ck.Exec.ck_inv
  | Barrier.Poisoned e -> describe_exn e
  | e -> Printexc.to_string e

let run ?domains ?chunk ?force ?(retry = 3) ?(watchdog_ms = 5000) ?fault ?trace
    (prog : Ast.program) (plan : Expand.Plan.t) (lids : Ast.lid list) : t =
  let retry = max 1 retry in
  let watchdog_ms = max 1 watchdog_ms in
  let requested =
    match domains with
    | Some n -> max 1 n
    | None -> Exec.available_domains ()
  in
  let st =
    {
      mu = Mutex.create ();
      attempt = 0;
      events = [];
      agg = Telemetry.Counters.create ();
      steal_used = Atomic.make 0;
    }
  in
  let fkind =
    match fault with
    | Some f when Faultinject.Fault.domain_level f ->
      Some f.Faultinject.Fault.kind
    | _ -> None
  in
  let targeted (ck : Exec.chunk_ref) =
    match fault with
    | Some f ->
      Faultinject.Fault.target_chunk f ~lid:ck.Exec.ck_lid ~inv:ck.Exec.ck_inv
        ~nchunks:ck.Exec.ck_nchunks
      = ck.Exec.ck_chunk
    | None -> false
  in
  (* The abort pill: [Some reason] cancels the attempt; workers see it
     at their next loop event, barrier waiters via the poison hook. *)
  let abort : string option Atomic.t = Atomic.make None in
  let check_abort () =
    match Atomic.get abort with
    | Some reason -> raise (Exec.Supervised_abort reason)
    | None -> ()
  in
  let poison : (exn -> unit) Atomic.t = Atomic.make (fun _ -> ()) in
  (* Per-domain heartbeat: gettimeofday stamped at chunk acquisition,
     -1 when the domain holds no chunk. *)
  let hb = Array.init requested (fun _ -> Atomic.make (-1.0)) in
  let sv =
    {
      Exec.sv_budget = retry;
      sv_on_chunk =
        (fun ~dom ~attempt ck ->
          check_abort ();
          Atomic.set hb.(dom) (Unix.gettimeofday ());
          if attempt > 1 then begin
            bump st k_retries;
            record st ~domain:dom ~loop:ck.Exec.ck_lid ~chunk:ck.Exec.ck_chunk
              ~kind:"retry"
              ~detail:(Printf.sprintf "acquisition attempt %d" attempt)
          end;
          (match fkind with
          | Some (Faultinject.Fault.Domain_stall n)
            when targeted ck && take_budget st k_stalls n ->
            record st ~domain:dom ~loop:ck.Exec.ck_lid ~chunk:ck.Exec.ck_chunk
              ~kind:"stall"
              ~detail:"injected stall: holding the chunk until the watchdog";
            let rec wait () =
              check_abort ();
              Unix.sleepf 0.002;
              wait ()
            in
            wait ()
          | _ -> ());
          match fkind with
          | Some (Faultinject.Fault.Domain_crash n)
            when targeted ck && take_budget st k_crashes n ->
            record st ~domain:dom ~loop:ck.Exec.ck_lid ~chunk:ck.Exec.ck_chunk
              ~kind:"crash"
              ~detail:
                (Printf.sprintf "injected crash on acquisition attempt %d"
                   attempt);
            false
          | _ -> true);
      sv_backoff =
        (fun ~attempt ->
          Unix.sleepf (min 0.016 (0.001 *. float_of_int (1 lsl (attempt - 1)))));
      sv_chunk_done = (fun ~dom _ck -> Atomic.set hb.(dom) (-1.0));
      sv_corrupt_log =
        (fun ~dom:_ ck ->
          match fkind with
          | Some (Faultinject.Fault.Writelog_corrupt n) when targeted ck ->
            take_budget st k_corrupt_attempts n
          | _ -> false);
      sv_steal_veto =
        (fun ~dom:_ ->
          match fkind with
          | Some (Faultinject.Fault.Steal_contention n) ->
            let rec take () =
              let used = Atomic.get st.steal_used in
              if used >= n then false
              else if Atomic.compare_and_set st.steal_used used (used + 1) then
                true
              else take ()
            in
            take ()
          | _ -> false);
      sv_tick = check_abort;
      sv_register_poison = (fun f -> Atomic.set poison f);
      sv_event =
        (fun ~dom ~kind ~detail ->
          (match kind with
          | "corrupt" -> bump st k_corruptions
          | "corrupt-detected" -> bump st k_corruptions_detected
          | _ -> ());
          record st ~domain:dom ~loop:(-1) ~chunk:(-1) ~kind ~detail);
    }
  in
  (* [wake] is the read end of a pipe written once the attempt ends,
     so the thread leaves within its current tick instead of sleeping
     it out: joining it costs nothing on a clean run. *)
  let watchdog stop wake () =
    let limit = float_of_int watchdog_ms /. 1000. in
    let tick = max 0.001 (limit /. 4.) in
    while not (Atomic.get stop) do
      (match Unix.select [ wake ] [] [] tick with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if (not (Atomic.get stop)) && Atomic.get abort = None then begin
        let now = Unix.gettimeofday () in
        Array.iteri
          (fun d a ->
            let t0 = Atomic.get a in
            if t0 >= 0. && now -. t0 > limit && Atomic.get abort = None then begin
              let reason =
                Printf.sprintf
                  "watchdog: domain %d held its chunk past %d ms; cancelling \
                   the attempt"
                  d watchdog_ms
              in
              Atomic.set abort (Some reason);
              bump st k_watchdog;
              record st ~domain:(-1) ~loop:(-1) ~chunk:(-1) ~kind:"watchdog"
                ~detail:reason;
              (Atomic.get poison) (Exec.Supervised_abort reason)
            end)
          hb
      end
    done
  in
  let rec attempt_loop k : Exec.result option * string option =
    st.attempt <- k;
    Atomic.set abort None;
    Array.iter (fun a -> Atomic.set a (-1.0)) hb;
    Atomic.set poison (fun _ -> ());
    let stop = Atomic.make false in
    let wd =
      if requested > 1 then begin
        let wake, signal = Unix.pipe ~cloexec:true () in
        Some (Thread.create (watchdog stop wake) (), wake, signal)
      end
      else None
    in
    let res =
      try
        Ok
          (Telemetry.Span.wall ~cat:"supervisor" "supervisor.attempt"
             (fun () ->
               Exec.run ?domains ?chunk ?force ~sup:sv ?trace prog plan lids))
      with e -> Error e
    in
    Atomic.set stop true;
    Option.iter
      (fun (th, wake, signal) ->
        ignore (Unix.write_substring signal "x" 0 1);
        Thread.join th;
        Unix.close wake;
        Unix.close signal)
      wd;
    match res with
    | Ok r -> (Some r, None)
    | Error e ->
      let why = describe_exn e in
      record st ~domain:(-1) ~loop:(-1) ~chunk:(-1) ~kind:"attempt-failed"
        ~detail:why;
      if k < retry then begin
        Unix.sleepf (min 0.016 (0.002 *. float_of_int k));
        attempt_loop (k + 1)
      end
      else (None, Some why)
  in
  let result, failure = attempt_loop 1 in
  let outcome =
    match (result, failure) with
    | None, Some why ->
      record st ~domain:(-1) ~loop:(-1) ~chunk:(-1) ~kind:"abort" ~detail:why;
      Aborted why
    | Some _, _ ->
      let dirty =
        st.attempt > 1
        || count st k_retries > 0
        || count st k_crashes > 0
        || count st k_stalls > 0
        || count st k_corruptions_detected > 0
        || count st k_watchdog > 0
      in
      if dirty then begin
        record st ~domain:(-1) ~loop:(-1) ~chunk:(-1) ~kind:"recovered"
          ~detail:
            (Printf.sprintf "clean output after %d attempt(s)" st.attempt);
        Recovered
      end
      else Completed
    | None, None -> assert false
  in
  let snap = Telemetry.Counters.snapshot st.agg in
  if Telemetry.Sink.enabled () then begin
    Telemetry.Span.count "supervisor.attempts" st.attempt;
    (* replicate the aggregator verbatim into the global sink, so
       [--metrics] reports exactly what the campaign entries report *)
    List.iter
      (fun (key, v) -> Telemetry.Span.count key v)
      snap.Telemetry.Counters.counters;
    Telemetry.Span.count "supervisor.steal_lost"
      (match result with Some r -> r.Exec.dx_steal_lost | None -> 0)
  end;
  {
    sup_result = result;
    sup_outcome = outcome;
    sup_attempts = st.attempt;
    sup_retries = count st k_retries;
    sup_crashes = count st k_crashes;
    sup_stalls = count st k_stalls;
    sup_corruptions = count st k_corruptions;
    sup_corruptions_detected = count st k_corruptions_detected;
    sup_watchdog_fires = count st k_watchdog;
    sup_steal_lost =
      (match result with Some r -> r.Exec.dx_steal_lost | None -> 0);
    sup_events = List.rev st.events;
    sup_counters = snap;
  }
