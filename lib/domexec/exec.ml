(** Domain executor. See the interface for the execution model; the
    comments here cover the scheduling invariants the code relies on.

    Chunks of a distributed loop are homed round-robin (chunk [c]
    belongs to domain [c mod n]). Each owner pushes its chunks in
    {e decreasing} index order, so its own pops yield increasing
    indices while thieves — stealing from the top — always take the
    owner's {e highest} remaining chunk. Consequently, when an owner
    reaches the boundary of its next own chunk, the bottom of its
    deque is either exactly that chunk or the deque is empty (the
    chunk was stolen). Thieves only steal chunks whose boundary is
    strictly ahead of their current position ([steal_if]), park them
    in a pending set, and execute them on arrival; chunks that are
    never stolen are always popped by their home at its boundary.
    Every chunk is therefore executed exactly once, by exactly one
    domain. *)

open Minic

type decision = Distributed | Replicated of string

type loop_report = {
  lr_lid : Ast.lid;
  lr_decision : decision;
  lr_invocations : int;
  lr_iterations : int;
}

type result = {
  dx_exit : int;
  dx_output : string;
  dx_requested : int;
  dx_domains : int;
  dx_wall_ns : float;
  dx_steals : int;
  dx_steal_lost : int;
  dx_chunks_run : int array;
  dx_merges : int;
  dx_loops : loop_report list;
  dx_fallback : string option;
  dx_machine : Interp.Machine.t;
}

type chunk_ref = {
  ck_lid : Ast.lid;
  ck_inv : int;
  ck_chunk : int;
  ck_nchunks : int;
}

exception Supervised_abort of string
exception Retry_exhausted of chunk_ref
exception Log_corrupted of chunk_ref
exception Chunk_lost of chunk_ref

type supervision = {
  sv_budget : int;
  sv_on_chunk : dom:int -> attempt:int -> chunk_ref -> bool;
  sv_backoff : attempt:int -> unit;
  sv_chunk_done : dom:int -> chunk_ref -> unit;
  sv_corrupt_log : dom:int -> chunk_ref -> bool;
  sv_steal_veto : dom:int -> bool;
  sv_tick : unit -> unit;
  sv_register_poison : (exn -> unit) -> unit;
  sv_event : dom:int -> kind:string -> detail:string -> unit;
}

let decision_to_string = function
  | Distributed -> "distributed"
  | Replicated why -> "replicated (" ^ why ^ ")"

let available_domains () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)
(* ------------------------------------------------------------------ *)

let rec iter_stmts f (s : Ast.stmt) =
  f s;
  match s.Ast.skind with
  | Ast.Sseq l -> List.iter (iter_stmts f) l
  | Ast.Sif (_, a, b) ->
    iter_stmts f a;
    iter_stmts f b
  | Ast.Swhile (_, _, b) -> iter_stmts f b
  | Ast.Sfor (_, i, _, st, b) ->
    iter_stmts f i;
    iter_stmts f st;
    iter_stmts f b
  | _ -> ()

(* Access ids participating in basic induction updates [x = x +/- c],
   anywhere in the program: the store, and the load of [x] on the
   right-hand side. Such loads are benign wherever they occur — they
   read only the value the same update wrote. *)
let induction_update_aids (prog : Ast.program) =
  let stores = Hashtbl.create 32 and loads = Hashtbl.create 32 in
  let scan s =
    match s.Ast.skind with
    | Ast.Sassign (aid, Ast.Var x, e) -> (
      match e with
      | Ast.Binop
          ( (Ast.Add | Ast.Sub),
            Ast.Lval (la, Ast.Var y),
            Ast.Const (Ast.Cint _) )
        when String.equal x y ->
        Hashtbl.replace stores aid ();
        Hashtbl.replace loads la ()
      | Ast.Binop
          (Ast.Add, Ast.Const (Ast.Cint _), Ast.Lval (la, Ast.Var y))
        when String.equal x y ->
        Hashtbl.replace stores aid ();
        Hashtbl.replace loads la ()
      | _ -> ())
    | _ -> ()
  in
  List.iter
    (function Ast.Gfun f -> iter_stmts scan f.Ast.fbody | _ -> ())
    prog.Ast.globals;
  (stores, loads)

(* Break statements binding to this loop (not to an inner one). *)
let rec has_toplevel_break (s : Ast.stmt) =
  match s.Ast.skind with
  | Ast.Sbreak -> true
  | Ast.Sseq l -> List.exists has_toplevel_break l
  | Ast.Sif (_, a, b) -> has_toplevel_break a || has_toplevel_break b
  | Ast.Swhile _ | Ast.Sfor _ -> false
  | _ -> false

let has_return (s : Ast.stmt) =
  let found = ref false in
  iter_stmts
    (fun s -> match s.Ast.skind with Ast.Sreturn _ -> found := true | _ -> ())
    s;
  !found

type loop_static = {
  ls_step_aids : (Ast.aid, unit) Hashtbl.t;
  ls_early_exit : string option;  (** why the loop may exit early *)
}

let loop_static_of prog lid : loop_static =
  let step_aids = Hashtbl.create 8 in
  let early = ref None in
  (match Visit.find_loop_fun prog lid with
  | None -> ()
  | Some (_, loop) ->
    let step, body =
      match loop.Ast.skind with
      | Ast.Sfor (_, _, _, step, body) -> (step, body)
      | Ast.Swhile (_, _, body) -> (Ast.skip, body)
      | _ -> (Ast.skip, Ast.skip)
    in
    List.iter
      (fun a -> Hashtbl.replace step_aids a.Visit.acc_aid ())
      (Visit.accesses_of_stmt step);
    if has_toplevel_break body then early := Some "the loop body may break";
    if has_return body then
      early := Some "the loop body may return from the function");
  { ls_step_aids = step_aids; ls_early_exit = !early }

(* ------------------------------------------------------------------ *)
(* Distribution-safety pre-pass                                        *)
(* ------------------------------------------------------------------ *)

type inv_plan = {
  ip_trip : int;
  ip_deltas : (int * int) array;
      (** (addr, size) of body-updated basic induction variables,
          merged at loop exit as pre + sum of per-domain deltas *)
}

(* Invocation and iteration counts of the parallel loops, for the loop
   reports. Only an outermost activation counts (a parallel loop entered
   while another is open runs inline), and an invocation's iterations
   are the index of its last [Iter] event. *)
type loop_counts = {
  lc_inv : (Ast.lid, int) Hashtbl.t;
  lc_iters : (Ast.lid, int) Hashtbl.t;
  mutable lc_open : (Ast.lid * int) option;  (** open loop, its last [Iter] *)
}

let loop_counts lids =
  let lc =
    { lc_inv = Hashtbl.create 8; lc_iters = Hashtbl.create 8; lc_open = None }
  in
  List.iter
    (fun lid ->
      Hashtbl.replace lc.lc_inv lid 0;
      Hashtbl.replace lc.lc_iters lid 0)
    lids;
  lc

let count_loop_event lc lid (ev : Interp.Machine.loop_event) =
  if Hashtbl.mem lc.lc_inv lid then
    match (ev, lc.lc_open) with
    | Interp.Machine.Enter, None -> lc.lc_open <- Some (lid, 0)
    | Interp.Machine.Iter i, Some (l, _) when l = lid ->
      lc.lc_open <- Some (lid, i)
    | Interp.Machine.Exit, Some (l, it) when l = lid ->
      Hashtbl.replace lc.lc_inv lid (Hashtbl.find lc.lc_inv lid + 1);
      Hashtbl.replace lc.lc_iters lid (Hashtbl.find lc.lc_iters lid + it);
      lc.lc_open <- None
    | _ -> ()

type prepass = {
  pp_decisions : (Ast.lid, decision) Hashtbl.t;
  pp_invs : (Ast.lid * int, inv_plan) Hashtbl.t;
  pp_counts : loop_counts;
  pp_stopped : bool;
      (** every loop was replicated before the program ended, so the
          pre-pass stopped there and [pp_counts] is partial *)
}

exception All_replicated

type pre_active = {
  pa_lid : Ast.lid;
  pa_inv : int;
  pa_stamp : int;  (** activation number (from 1), stamped into the shadow *)
  pa_static : loop_static;
  mutable pa_live : bool;  (** the loop is still distributed *)
  mutable pa_iter : int;
  pa_stepv : (int, unit) Hashtbl.t;  (** induction vars advanced in the step *)
  pa_bodyv : (int, int) Hashtbl.t;  (** induction vars advanced in the body *)
  pa_otherload : (int, unit) Hashtbl.t;
      (** induction-verdict loads outside their own update *)
  pa_rand0 : int64;
}

let prepass ~(prog : Ast.program) ~(plan : Expand.Plan.t)
    ~(lids : Ast.lid list) ~(domains : int) : prepass =
  let decisions = Hashtbl.create 8 in
  let invs = Hashtbl.create 16 in
  let counts = loop_counts lids in
  let statics = Hashtbl.create 8 in
  let upd_stores, upd_loads = induction_update_aids prog in
  (* loops still distributed; a decision only ever moves to replicated,
     so once this reaches 0 the rest of the run cannot change any *)
  let undecided = ref 0 in
  let active : pre_active option ref = ref None in
  let demote lid why =
    match Hashtbl.find_opt decisions lid with
    | Some Distributed ->
      Hashtbl.replace decisions lid (Replicated why);
      decr undecided;
      (match !active with
      | Some pa when pa.pa_lid = lid -> pa.pa_live <- false
      | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun lid ->
      if not (Hashtbl.mem decisions lid) then incr undecided;
      Hashtbl.replace decisions lid Distributed;
      let ls = loop_static_of prog lid in
      Hashtbl.replace statics lid ls;
      match ls.ls_early_exit with
      | Some why -> demote lid why
      | None -> ())
    lids;
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  Interp.Machine.set_global_int st Expand.Names.nthreads domains;
  let activations = ref 0 in
  (* Per access id, looked up on every observed access: bit 0 the plan
     gives it the induction verdict, bit 1 it is the store of an
     induction update, bit 2 that update's load. [load] stamped the
     program's last aids, so every observed aid is below [next_aid]. *)
  let aid_bits =
    Array.init prog.Ast.next_aid (fun aid ->
        (match Expand.Plan.verdict plan aid with
        | Privatize.Classify.Induction -> 1
        | _ -> 0)
        lor (if Hashtbl.mem upd_stores aid then 2 else 0)
        lor if Hashtbl.mem upd_loads aid then 4 else 0)
  in
  (* Per 8-byte granule: [sh_written] and [sh_body] hold the stamp of
     the activation that last stored it (from anywhere / from the body)
     and [sh_iter] that store's iteration; a stale stamp reads as never
     written, so a new activation starts clean without a sweep. *)
  let shadow = Depgraph.Shadow.create ~granule_bits:3 ~planes:3 () in
  let sh_written = 0 and sh_iter = 1 and sh_body = 2 in
  let on_store pa ~is_step addr size =
    for g = addr lsr 3 to (addr + size - 1) lsr 3 do
      let p = Depgraph.Shadow.page shadow (g lsl 3)
      and s = Depgraph.Shadow.index shadow (g lsl 3) in
      p.(sh_written + s) <- pa.pa_stamp;
      p.(sh_iter + s) <- pa.pa_iter;
      if not is_step then p.(sh_body + s) <- pa.pa_stamp
    done
  in
  let on_load pa ~is_step addr size =
    for g = addr lsr 3 to (addr + size - 1) lsr 3 do
      let p = Depgraph.Shadow.find_page shadow (g lsl 3) in
      if Array.length p > 0 then begin
        let s = Depgraph.Shadow.index shadow (g lsl 3) in
        if p.(sh_written + s) = pa.pa_stamp && p.(sh_iter + s) <> pa.pa_iter
        then demote pa.pa_lid "loop-carried flow dependence";
        (* the step runs on every machine, so it must not read values
           produced by bodies that machine did not execute *)
        if is_step && p.(sh_body + s) = pa.pa_stamp then
          demote pa.pa_lid "the step reads data written by the loop body"
      end
    done
  in
  st.Interp.Machine.observer <-
    Some
      (fun aid kind addr size ->
        match !active with
        | Some pa when pa.pa_live ->
          if
            addr >= st.Interp.Machine.stack_base
            && addr < st.Interp.Machine.stack_limit
          then ()
          else begin
            let is_step = Hashtbl.mem pa.pa_static.ls_step_aids aid in
            let bits = aid_bits.(aid) in
            if bits land 1 = 0 then
              match kind with
              | Visit.Store -> on_store pa ~is_step addr size
              | Visit.Load -> on_load pa ~is_step addr size
            else
              match kind with
              | Visit.Store ->
                if is_step then Hashtbl.replace pa.pa_stepv addr ()
                else if bits land 2 <> 0 then
                  Hashtbl.replace pa.pa_bodyv addr size
                else
                  demote pa.pa_lid
                    "induction store outside the x = x +/- c shape"
              | Visit.Load ->
                if bits land 4 = 0 then Hashtbl.replace pa.pa_otherload addr ()
          end
        | _ -> ());
  st.Interp.Machine.bulk_hook <-
    Some
      (fun dst src len ->
        match !active with
        | Some pa when pa.pa_live && len > 0 ->
          let stacky a =
            a >= st.Interp.Machine.stack_base
            && a < st.Interp.Machine.stack_limit
          in
          (match src with
          | Some s when not (stacky s) -> on_load pa ~is_step:false s len
          | _ -> ());
          if not (stacky dst) then on_store pa ~is_step:false dst len
        | _ -> ());
  st.Interp.Machine.alloc_hook <-
    Some
      (fun _ _ _ ->
        match !active with
        | Some pa -> demote pa.pa_lid "allocates inside the loop body"
        | None -> ());
  st.Interp.Machine.free_hook <-
    Some
      (fun _ _ ->
        match !active with
        | Some pa -> demote pa.pa_lid "frees inside the loop body"
        | None -> ());
  st.Interp.Machine.loop_hook <-
    Some
      (fun lid ev ->
        if Hashtbl.mem decisions lid then begin
          (match ev with
          | Interp.Machine.Enter -> (
            match !active with
            | Some _ -> demote lid "nested inside another parallelized loop"
            | None ->
              incr activations;
              active :=
                Some
                  {
                    pa_lid = lid;
                    pa_inv = Hashtbl.find counts.lc_inv lid;
                    pa_stamp = !activations;
                    pa_static = Hashtbl.find statics lid;
                    pa_live = Hashtbl.find decisions lid = Distributed;
                    pa_iter = 0;
                    pa_stepv = Hashtbl.create 4;
                    pa_bodyv = Hashtbl.create 4;
                    pa_otherload = Hashtbl.create 4;
                    pa_rand0 = st.Interp.Machine.rand_state;
                  })
          | Interp.Machine.Iter i -> (
            match !active with
            | Some pa when pa.pa_lid = lid -> pa.pa_iter <- i
            | _ -> ())
          | Interp.Machine.Exit -> (
            match !active with
            | Some pa when pa.pa_lid = lid ->
              if pa.pa_live then begin
                if st.Interp.Machine.rand_state <> pa.pa_rand0 then
                  demote lid "rand() advances inside the loop";
                Hashtbl.iter
                  (fun addr _ ->
                    if Hashtbl.mem pa.pa_bodyv addr then
                      demote lid
                        "induction variable updated in both body and step")
                  pa.pa_stepv;
                Hashtbl.iter
                  (fun addr _ ->
                    if Hashtbl.mem pa.pa_bodyv addr then
                      demote lid "induction value read outside its own update")
                  pa.pa_otherload
              end;
              if pa.pa_live then begin
                let deltas =
                  Hashtbl.fold (fun a s acc -> (a, s) :: acc) pa.pa_bodyv []
                  |> List.sort compare |> Array.of_list
                in
                Hashtbl.replace invs (lid, pa.pa_inv)
                  { ip_trip = pa.pa_iter; ip_deltas = deltas }
              end;
              active := None
            | _ -> ()));
          count_loop_event counts lid ev;
          if !undecided = 0 then raise All_replicated
        end);
  let stopped =
    !undecided = 0
    ||
    match Interp.Machine.run m with
    | _ -> false
    | exception Interp.Machine.Exit_program _ -> false
    | exception All_replicated -> true
  in
  (match !active with
  | Some pa -> demote pa.pa_lid "the program exits inside the loop"
  | None -> ());
  {
    pp_decisions = decisions;
    pp_invs = invs;
    pp_counts = counts;
    pp_stopped = stopped;
  }

let prepass_decisions ~domains prog plan lids =
  let pp = prepass ~prog ~plan ~lids ~domains in
  List.map (fun lid -> (lid, Hashtbl.find pp.pp_decisions lid)) lids

(* ------------------------------------------------------------------ *)
(* Write logs                                                          *)
(* ------------------------------------------------------------------ *)

let log_store buf mem addr size =
  Buffer.add_int32_le buf (Int32.of_int addr);
  Buffer.add_int32_le buf (Int32.of_int size);
  Buffer.add_string buf (Interp.Memory.read_raw mem addr size)

let apply_log mem (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let addr = Int32.to_int (String.get_int32_le s !pos) in
    let len = Int32.to_int (String.get_int32_le s (!pos + 4)) in
    Interp.Memory.write_raw mem addr (String.sub s (!pos + 8) len);
    pos := !pos + 8 + len
  done

(* ------------------------------------------------------------------ *)
(* Parallel run                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared per-invocation state, preallocated before the domains spawn
   so the workers never allocate shared structures concurrently.
   Distinct array slots are written by distinct domains; the merge
   barrier publishes them. *)
type slot = {
  sl_key : Ast.lid * int;  (** (loop, invocation) this slot belongs to *)
  sl_trip : int;
  sl_chunk : int;
  sl_nchunks : int;
  sl_logs : string option array;  (** per-iteration write log *)
  sl_outs : string option array;  (** per-iteration output fragment *)
  sl_deltas : int array array;  (** per domain, per induction var *)
  sl_delta_addrs : (int * int) array;
  sl_sums : string array;
      (** supervised runs only: per-chunk digest of logs+outs, taken at
          chunk completion and re-checked before every merge replay *)
  sl_done : bool array;  (** supervised runs only: chunk executed *)
}

let chunk_ref_of (slot : slot) (c : int) : chunk_ref =
  {
    ck_lid = fst slot.sl_key;
    ck_inv = snd slot.sl_key;
    ck_chunk = c;
    ck_nchunks = slot.sl_nchunks;
  }

(* Digest of everything a chunk contributed: its iterations' write
   logs and output fragments. Recorded by the executing domain at
   chunk completion, re-derived by every domain before replaying the
   merge — any in-flight corruption of the shared arrays is caught
   before it can reach memory. *)
let chunk_digest (slot : slot) (c : int) : string =
  let k = slot.sl_chunk in
  let lo = c * k and hi = min slot.sl_trip ((c + 1) * k) in
  let b = Buffer.create 256 in
  for i = lo to hi - 1 do
    (match slot.sl_logs.(i) with
    | Some l ->
      Buffer.add_char b 'L';
      Buffer.add_string b l
    | None -> Buffer.add_char b '.');
    match slot.sl_outs.(i) with
    | Some o ->
      Buffer.add_char b 'O';
      Buffer.add_string b o
    | None -> Buffer.add_char b '.'
  done;
  Digest.string (Buffer.contents b)

(* Flip the last byte of the chunk's first recorded write log (or,
   failing that, output fragment) — the Writelog_corrupt fault.
   Returns false when the chunk recorded nothing corruptible. *)
let corrupt_chunk (slot : slot) (c : int) : bool =
  let k = slot.sl_chunk in
  let lo = c * k and hi = min slot.sl_trip ((c + 1) * k) in
  let flip (s : string) : string =
    let b = Bytes.of_string s in
    let j = Bytes.length b - 1 in
    Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0xFF));
    Bytes.unsafe_to_string b
  in
  let rec go i =
    if i >= hi then false
    else
      match slot.sl_logs.(i) with
      | Some l when String.length l > 0 ->
        slot.sl_logs.(i) <- Some (flip l);
        true
      | _ -> (
        match slot.sl_outs.(i) with
        | Some o when String.length o > 0 ->
          slot.sl_outs.(i) <- Some (flip o);
          true
        | _ -> go (i + 1))
  in
  go lo

type dom_active = {
  da_slot : slot;
  mutable da_cur_hi : int;  (** exclusive end of executing chunk; -1 = none *)
  da_pending : (int, unit) Hashtbl.t;  (** stolen chunks awaiting arrival *)
  mutable da_iter : int;
  mutable da_logging : bool;
  da_log : Buffer.t;
  mutable da_out_start : int;
  da_enter_out : int;
  da_pre : int array;  (** induction pre-values at loop entry *)
  mutable da_chunk_t0 : int;  (** ns at chunk acquisition; -1 = none *)
}

(* Per-domain telemetry, buffered locally (the sink is a plain global
   and not domain-safe) and emitted by the main domain after join. *)
type dom_tel = {
  mutable spans : (string * string * int * int) list;  (** name/cat/t0/t1 ns *)
  mutable instants : (string * int) list;
}

let ceil_div a b = (a + b - 1) / b

let chunk_size ~override ~trip ~domains =
  match override with
  | Some k -> max 1 k
  | None -> max 1 (ceil_div trip (4 * domains))

let run ?domains ?chunk ?(force = false) ?sup ?trace (prog : Ast.program)
    (plan : Expand.Plan.t) (lids : Ast.lid list) : result =
  let requested =
    match domains with Some n -> max 1 n | None -> available_domains ()
  in
  let fallback =
    if requested = 1 then Some "one domain requested"
    else if available_domains () = 1 && not force then
      Some "only one core available (Domain.recommended_domain_count = 1)"
    else None
  in
  match fallback with
  | Some why ->
    (* Sequential fallback: one machine, one copy, no scheduler. *)
    let m = Interp.Machine.load prog in
    Interp.Machine.set_global_int m.Interp.Machine.st Expand.Names.nthreads 1;
    let t0 = Unix.gettimeofday () in
    let code = Interp.Machine.run m in
    let wall = (Unix.gettimeofday () -. t0) *. 1e9 in
    {
      dx_exit = code;
      dx_output = Interp.Machine.output m.Interp.Machine.st;
      dx_requested = requested;
      dx_domains = 1;
      dx_wall_ns = wall;
      dx_steals = 0;
      dx_steal_lost = 0;
      dx_chunks_run = [| 0 |];
      dx_merges = 0;
      dx_loops = [];
      dx_fallback = Some why;
      dx_machine = m;
    }
  | None ->
    let n = requested in
    let pp = prepass ~prog ~plan ~lids ~domains:n in
    (* A stopped pre-pass left its counts partial; domain 0 then counts
       the loops afresh, running each one in full as the pre-pass
       would have. *)
    let counts = if pp.pp_stopped then loop_counts lids else pp.pp_counts in
    (* Shared slots for every distributed invocation. *)
    let slots : (Ast.lid * int, slot) Hashtbl.t = Hashtbl.create 16 in
    let max_own = ref 1 in
    Hashtbl.iter
      (fun key ip ->
        let lid = fst key in
        match Hashtbl.find_opt pp.pp_decisions lid with
        | Some Distributed when ip.ip_trip > 0 ->
          let k = chunk_size ~override:chunk ~trip:ip.ip_trip ~domains:n in
          let nchunks = ceil_div ip.ip_trip k in
          max_own := max !max_own (ceil_div nchunks n);
          Hashtbl.replace slots key
            {
              sl_key = key;
              sl_trip = ip.ip_trip;
              sl_chunk = k;
              sl_nchunks = nchunks;
              sl_logs = Array.make ip.ip_trip None;
              sl_outs = Array.make ip.ip_trip None;
              sl_deltas =
                Array.init n (fun _ ->
                    Array.make (Array.length ip.ip_deltas) 0);
              sl_delta_addrs = ip.ip_deltas;
              sl_sums = Array.make nchunks "";
              sl_done = Array.make nchunks false;
            }
        | _ -> ())
      pp.pp_invs;
    let deques =
      Array.init n (fun _ -> Deque.create ~capacity:(2 * !max_own) ())
    in
    let barrier = Barrier.create n in
    (match sup with
    | Some sv -> sv.sv_register_poison (fun e -> Barrier.poison barrier e)
    | None -> ());
    let steals = Array.make n 0 in
    let steal_lost = Array.make n 0 in
    let chunks_run = Array.make n 0 in
    let merges = Array.make n 0 in
    let tels = Array.init n (fun _ -> { spans = []; instants = [] }) in
    (* Machines must be loaded sequentially: [load] stamps fresh access
       ids into the (shared) program. *)
    let machines = Array.init n (fun _ -> Interp.Machine.load prog) in
    Array.iter
      (fun m ->
        Interp.Machine.set_global_int m.Interp.Machine.st
          Expand.Names.nthreads n)
      machines;
    (* One event ring per domain per attempt; the recorder outlives
       this run, so a supervised retry appends a fresh set and the
       failed attempt's trace survives into the report. *)
    let rings, attempt_idx =
      match trace with
      | Some tr ->
        let rs = Domtrace.begin_attempt tr ~domains:n in
        (Some rs, Domtrace.attempt_count tr - 1)
      | None -> (None, 0)
    in
    let gc_on =
      match trace with Some tr -> Domtrace.gc_sampling tr | None -> false
    in
    let t0 = Unix.gettimeofday () in
    let now_ns () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    let body d =
      let m = machines.(d) in
      let st = m.Interp.Machine.st in
      let tel = tels.(d) in
      (* Ring emission: a handful of int stores into this domain's
         preallocated ring, nothing when tracing is off. Each event
         carries the machine's cycle counter as its virtual timestamp,
         so the critical-path profiler can weigh segments in
         deterministic interpreter cycles as well as host ns. *)
      let remit k ~a ~b ~c =
        match rings with
        | Some rs ->
          Ring.emit rs.(d) k ~ts:(now_ns ()) ~vt:st.Interp.Machine.cycles ~a
            ~b ~c ()
        | None -> ()
      in
      let gmin = ref 0 and gmaj = ref 0 and gwords = ref 0.0 in
      let gc_reset () =
        if gc_on then begin
          let q = Gc.quick_stat () in
          gmin := q.Gc.minor_collections;
          gmaj := q.Gc.major_collections;
          gwords := q.Gc.minor_words
        end
      in
      (* [Gc.quick_stat] delta since the previous chunk boundary. *)
      let gc_sample () =
        if gc_on then begin
          let q = Gc.quick_stat () in
          remit Ring.Gc_sample
            ~a:(q.Gc.minor_collections - !gmin)
            ~b:(q.Gc.major_collections - !gmaj)
            ~c:(int_of_float (q.Gc.minor_words -. !gwords));
          gmin := q.Gc.minor_collections;
          gmaj := q.Gc.major_collections;
          gwords := q.Gc.minor_words
        end
      in
      let inv_count : (Ast.lid, int) Hashtbl.t = Hashtbl.create 8 in
      let active : dom_active option ref = ref None in
      let finalize_iter da =
        da.da_logging <- false;
        if Buffer.length da.da_log > 0 then begin
          da.da_slot.sl_logs.(da.da_iter) <- Some (Buffer.contents da.da_log);
          Buffer.clear da.da_log
        end;
        let olen = Buffer.length st.Interp.Machine.out - da.da_out_start in
        if olen > 0 then
          da.da_slot.sl_outs.(da.da_iter) <-
            Some (Buffer.sub st.Interp.Machine.out da.da_out_start olen)
      in
      let try_steal da i =
        let k = da.da_slot.sl_chunk in
        let lost_here = ref 0 in
        (* A lost CAS means the element may still be there: retry the
           same victim a few times before moving on. Chunks can never
           be lost to contention — a chunk no thief takes is popped by
           its home domain at its boundary. *)
        let rec attempt victim tries =
          let s0 = now_ns () in
          let forced =
            match sup with Some sv -> sv.sv_steal_veto ~dom:d | None -> false
          in
          let r =
            if forced then Deque.Steal_lost
            else Deque.steal_if (fun c -> c * k > i) deques.(victim)
          in
          match r with
          | Deque.Stolen c ->
            Hashtbl.replace da.da_pending c ();
            steals.(d) <- steals.(d) + 1;
            tel.instants <- ("steal", now_ns ()) :: tel.instants;
            remit Ring.Steal_stolen ~a:victim ~b:c ~c:(now_ns () - s0);
            true
          | Deque.Steal_empty ->
            remit Ring.Steal_empty ~a:victim ~b:(-1) ~c:(now_ns () - s0);
            false
          | Deque.Steal_lost ->
            incr lost_here;
            steal_lost.(d) <- steal_lost.(d) + 1;
            remit Ring.Steal_lost ~a:victim ~b:(-1) ~c:(now_ns () - s0);
            if tries < 4 then attempt victim (tries + 1) else false
        in
        let rec go v =
          if v >= n then ()
          else if attempt ((d + v) mod n) 0 then ()
          else go (v + 1)
        in
        go 1;
        if !lost_here > 0 then
          match sup with
          | Some sv ->
            sv.sv_event ~dom:d ~kind:"steal-lost"
              ~detail:
                (Printf.sprintf "%d lost steal attempt(s) at iteration %d"
                   !lost_here i)
          | None -> ()
      in
      (* Supervised chunk acquisition: each attempt may be crashed by
         the fault plan; the chunk's work is discarded (its write log
         is empty at the boundary) and the acquisition retried after a
         deterministic backoff, up to the budget. *)
      let sup_acquire da c acquire =
        let ck = chunk_ref_of da.da_slot c in
        remit Ring.Chunk_claim ~a:ck.ck_lid ~b:ck.ck_inv ~c:ck.ck_chunk;
        let acquire () =
          remit Ring.Chunk_start ~a:ck.ck_lid ~b:ck.ck_inv ~c:ck.ck_chunk;
          acquire ()
        in
        match sup with
        | None -> acquire ()
        | Some sv ->
          let rec go attempt =
            if attempt > sv.sv_budget then begin
              sv.sv_event ~dom:d ~kind:"retry-exhausted"
                ~detail:
                  (Printf.sprintf
                     "chunk %d/%d of loop %d inv %d still failing after %d \
                      attempts"
                     ck.ck_chunk ck.ck_nchunks ck.ck_lid ck.ck_inv
                     sv.sv_budget);
              raise (Retry_exhausted ck)
            end
            else begin
              if attempt > 1 then
                remit Ring.Retry ~a:ck.ck_lid ~b:ck.ck_chunk ~c:attempt;
              (* the stall fault blocks inside [sv_on_chunk], so this
                 heartbeat is the last event before a stalled domain
                 goes quiet — the analyzer's claim gap starts here *)
              remit Ring.Heartbeat ~a:ck.ck_lid ~b:ck.ck_chunk ~c:attempt;
              if sv.sv_on_chunk ~dom:d ~attempt ck then acquire ()
              else begin
                let b0 = now_ns () in
                sv.sv_backoff ~attempt;
                remit Ring.Backoff ~a:attempt ~b:0 ~c:(now_ns () - b0);
                go (attempt + 1)
              end
            end
          in
          go 1
      in
      (* Chunk completed: digest its contribution so the merge can
         verify it, then let the fault plan corrupt it in flight (the
         corruption the verification exists to catch). *)
      let complete_chunk da =
        (let slot = da.da_slot in
         let c = (da.da_cur_hi - 1) / slot.sl_chunk in
         remit Ring.Chunk_finish ~a:(fst slot.sl_key) ~b:(snd slot.sl_key) ~c;
         gc_sample ());
        match sup with
        | None -> ()
        | Some sv ->
          let slot = da.da_slot in
          let c = (da.da_cur_hi - 1) / slot.sl_chunk in
          let ck = chunk_ref_of slot c in
          slot.sl_sums.(c) <- chunk_digest slot c;
          slot.sl_done.(c) <- true;
          sv.sv_chunk_done ~dom:d ck;
          if sv.sv_corrupt_log ~dom:d ck then
            if corrupt_chunk slot c then
              sv.sv_event ~dom:d ~kind:"corrupt"
                ~detail:
                  (Printf.sprintf
                     "flipped one byte of chunk %d of loop %d inv %d in the \
                      shared log"
                     c ck.ck_lid ck.ck_inv)
            else
              sv.sv_event ~dom:d ~kind:"corrupt-noop"
                ~detail:
                  (Printf.sprintf
                     "chunk %d of loop %d inv %d recorded no bytes to corrupt"
                     c ck.ck_lid ck.ck_inv)
      in
      (* Both hooks only log owned iterations of distributed loops;
         with none, every access skips the call. *)
      if Hashtbl.length slots > 0 then begin
        st.Interp.Machine.observer <-
          Some
            (fun aid kind addr size ->
              match !active with
              | Some da when da.da_logging -> (
                match kind with
                | Visit.Store ->
                  if
                    addr >= st.Interp.Machine.stack_base
                    && addr < st.Interp.Machine.stack_limit
                  then ()
                  else if
                    match Expand.Plan.verdict plan aid with
                    | Privatize.Classify.Induction -> true
                    | _ -> false
                  then () (* delta-merged (body) or replicated (step) *)
                  else log_store da.da_log st.Interp.Machine.mem addr size
                | Visit.Load -> ())
              | _ -> ());
        st.Interp.Machine.bulk_hook <-
          Some
            (fun dst _src len ->
              match !active with
              | Some da
                when da.da_logging && len > 0
                     && not
                          (dst >= st.Interp.Machine.stack_base
                          && dst < st.Interp.Machine.stack_limit) ->
                log_store da.da_log st.Interp.Machine.mem dst len
              | _ -> ())
      end;
      st.Interp.Machine.loop_hook <-
        Some
          (fun lid ev ->
            (* the supervisor's cancel point: every domain passes here
               on every loop event, so a watchdog abort is seen in
               bounded time (straight-line code between loop events is
               finite, and the interpreter's fuel bounds the rest) *)
            (match sup with Some sv -> sv.sv_tick () | None -> ());
            if d = 0 && pp.pp_stopped then count_loop_event counts lid ev;
            if Hashtbl.mem pp.pp_decisions lid then
              match ev with
              | Interp.Machine.Enter -> (
                match !active with
                | Some _ -> () (* nested: already demoted by the pre-pass *)
                | None -> (
                  let inv =
                    Option.value ~default:0 (Hashtbl.find_opt inv_count lid)
                  in
                  Hashtbl.replace inv_count lid (inv + 1);
                  match Hashtbl.find_opt slots (lid, inv) with
                  | None -> () (* replicated or zero-trip *)
                  | Some slot ->
                    Interp.Machine.set_global_int st Expand.Names.tid d;
                    (* decreasing push order: see the header comment *)
                    let c = ref (slot.sl_nchunks - 1) in
                    while !c >= 0 do
                      if !c mod n = d then Deque.push deques.(d) !c;
                      decr c
                    done;
                    let pre =
                      Array.map
                        (fun (addr, size) ->
                          Interp.Memory.load st.Interp.Machine.mem addr size)
                        slot.sl_delta_addrs
                    in
                    active :=
                      Some
                        {
                          da_slot = slot;
                          da_cur_hi = -1;
                          da_pending = Hashtbl.create 8;
                          da_iter = 0;
                          da_logging = false;
                          da_log = Buffer.create 4096;
                          da_out_start = 0;
                          da_enter_out =
                            Buffer.length st.Interp.Machine.out;
                          da_pre = pre;
                          da_chunk_t0 = -1;
                        }))
              | Interp.Machine.Iter i -> (
                match !active with
                | None -> ()
                | Some da ->
                  if da.da_logging then finalize_iter da;
                  let slot = da.da_slot in
                  let k = slot.sl_chunk in
                  if da.da_cur_hi >= 0 && i >= da.da_cur_hi then begin
                    complete_chunk da;
                    if da.da_chunk_t0 >= 0 then
                      tel.spans <-
                        ("chunk", "chunk", da.da_chunk_t0, now_ns ())
                        :: tel.spans;
                    da.da_chunk_t0 <- -1;
                    da.da_cur_hi <- -1
                  end;
                  if i < slot.sl_trip then begin
                    if da.da_cur_hi < 0 && i mod k = 0 then begin
                      let c = i / k in
                      let acquire () =
                        da.da_cur_hi <- min slot.sl_trip ((c + 1) * k);
                        da.da_chunk_t0 <- now_ns ();
                        chunks_run.(d) <- chunks_run.(d) + 1
                      in
                      if Hashtbl.mem da.da_pending c then begin
                        Hashtbl.remove da.da_pending c;
                        sup_acquire da c acquire
                      end
                      else if c mod n = d then begin
                        match Deque.pop deques.(d) with
                        | Some c' when c' = c -> sup_acquire da c acquire
                        | Some _ ->
                          raise
                            (Interp.Machine.Runtime_error
                               "domexec: deque order invariant violated")
                        | None -> () (* stolen from us *)
                      end
                      else if
                        Deque.is_empty deques.(d)
                        && Hashtbl.length da.da_pending = 0
                      then try_steal da i
                    end;
                    if da.da_cur_hi >= 0 then begin
                      da.da_iter <- i;
                      Buffer.clear da.da_log;
                      da.da_out_start <- Buffer.length st.Interp.Machine.out;
                      da.da_logging <- true
                    end
                    else st.Interp.Machine.iter_skip <- true
                  end)
              | Interp.Machine.Exit -> (
                match !active with
                | None -> ()
                | Some da ->
                  if da.da_logging then finalize_iter da;
                  (* normally closed by the trailing [Iter]; belt and
                     braces for loops that exit another way *)
                  if da.da_cur_hi >= 0 then begin
                    complete_chunk da;
                    da.da_cur_hi <- -1
                  end;
                  let slot = da.da_slot in
                  (* publish induction deltas, then synchronize *)
                  Array.iteri
                    (fun j (addr, size) ->
                      let cur =
                        Interp.Memory.load st.Interp.Machine.mem addr size
                      in
                      slot.sl_deltas.(d).(j) <- cur - da.da_pre.(j))
                    slot.sl_delta_addrs;
                  Barrier.wait barrier;
                  (* Supervised runs verify every chunk before trusting
                     the shared arrays: each must have been completed,
                     and its bytes must still match the digest taken at
                     completion. Domain 0 alone re-derives the digests
                     (hashing every log on every domain would multiply
                     the fault-free overhead): on a mismatch it raises,
                     the attempt fails, and the supervisor's re-run
                     rebuilds every machine from scratch — so the other
                     domains replaying unverified bytes only ever
                     pollute state the re-run discards. *)
                  (match sup with
                  | None -> ()
                  | Some sv when d = 0 ->
                    for c = 0 to slot.sl_nchunks - 1 do
                      let ck = chunk_ref_of slot c in
                      if not slot.sl_done.(c) then raise (Chunk_lost ck);
                      if
                        not
                          (String.equal (chunk_digest slot c) slot.sl_sums.(c))
                      then begin
                        sv.sv_event ~dom:d ~kind:"corrupt-detected"
                          ~detail:
                            (Printf.sprintf
                               "chunk %d of loop %d inv %d fails its \
                                completion digest; discarding the run"
                               c ck.ck_lid ck.ck_inv);
                        raise (Log_corrupted ck)
                      end
                    done
                  | Some _ -> ());
                  (* merge: replay all write logs in iteration order,
                     fold induction deltas, splice output fragments *)
                  let tm0 = now_ns () in
                  remit Ring.Merge_begin ~a:(fst slot.sl_key)
                    ~b:(snd slot.sl_key) ~c:0;
                  let merge_bytes = ref 0 in
                  for i = 0 to slot.sl_trip - 1 do
                    match slot.sl_logs.(i) with
                    | Some log ->
                      merge_bytes := !merge_bytes + String.length log;
                      apply_log st.Interp.Machine.mem log
                    | None -> ()
                  done;
                  (* native sums wrap at 63 bits: the stored low bytes
                     are exact for every width, and an 8-byte total is
                     exact whenever the sequential value fits (where it
                     does not, the sequential machine raises) *)
                  Array.iteri
                    (fun j (addr, size) ->
                      let sum = ref da.da_pre.(j) in
                      for t = 0 to n - 1 do
                        sum := !sum + slot.sl_deltas.(t).(j)
                      done;
                      Interp.Memory.store st.Interp.Machine.mem addr size !sum)
                    slot.sl_delta_addrs;
                  Buffer.truncate st.Interp.Machine.out da.da_enter_out;
                  Array.iter
                    (function
                      | Some frag ->
                        merge_bytes := !merge_bytes + String.length frag;
                        Buffer.add_string st.Interp.Machine.out frag
                      | None -> ())
                    slot.sl_outs;
                  merges.(d) <- merges.(d) + 1;
                  (* the byte count gives the profiler a deterministic
                     weight for the merge segment *)
                  remit Ring.Merge_end ~a:(fst slot.sl_key) ~b:(snd slot.sl_key)
                    ~c:!merge_bytes;
                  tel.spans <- ("merge", "merge", tm0, now_ns ()) :: tel.spans;
                  Interp.Machine.set_global_int st Expand.Names.tid 0;
                  active := None));
      let tr0 = now_ns () in
      tel.instants <- ("spawn", tr0) :: tel.instants;
      remit Ring.Run_begin ~a:d ~b:n ~c:attempt_idx;
      gc_reset ();
      let code = Interp.Machine.run m in
      tel.spans <- ("run", "domain", tr0, now_ns ()) :: tel.spans;
      remit Ring.Run_end ~a:d ~b:0 ~c:0;
      code
    in
    let guarded d () =
      try Ok (body d)
      with e ->
        (match rings with
        | Some rs ->
          (* the poison-pill (or any failure) observation: the last
             event of an aborted domain, which closes its open claim
             for the analyzer *)
          Ring.emit rs.(d) Ring.Poison ~ts:(now_ns ()) ~a:d ~b:0 ~c:0 ()
        | None -> ());
        Barrier.poison barrier e;
        Error e
    in
    let workers =
      Array.init (n - 1) (fun k -> Domain.spawn (guarded (k + 1)))
    in
    let r0 = guarded 0 () in
    let results =
      Array.append [| r0 |] (Array.map Domain.join workers)
    in
    let wall = (Unix.gettimeofday () -. t0) *. 1e9 in
    (* Close the attempt on the recorder (before any re-raise, so a
       poisoned attempt's GC accounting survives into the report): the
       runtime-events cursor is polled here, outside the timed window. *)
    (match trace with Some tr -> Domtrace.end_attempt tr | None -> ());
    (* Re-raise the first real failure (not barrier poisoning fallout). *)
    Array.iter
      (function
        | Error (Barrier.Poisoned _) -> () | Error e -> raise e | Ok _ -> ())
      results;
    Array.iter
      (function Error e -> raise e | Ok _ -> ())
      results;
    let codes =
      Array.map (function Ok c -> c | Error _ -> assert false) results
    in
    let outs =
      Array.map
        (fun m -> Interp.Machine.output m.Interp.Machine.st)
        machines
    in
    Array.iteri
      (fun d c ->
        if c <> codes.(0) || not (String.equal outs.(d) outs.(0)) then
          raise
            (Interp.Machine.Runtime_error
               (Printf.sprintf
                  "domexec: domain %d diverged from domain 0 (merge bug)" d)))
      codes;
    (* Emit buffered scheduler telemetry: one pseudo-process per domain. *)
    if Telemetry.Sink.enabled () then begin
      Array.iteri
        (fun d tel ->
          let tid = Telemetry.Chrome_trace.domain_tid_base + d in
          List.iter
            (fun (name, cat, a, b) ->
              Telemetry.Span.sim_begin ~cat ~tid ~ts:a name;
              Telemetry.Span.sim_end ~tid ~ts:b name)
            (List.rev tel.spans);
          List.iter
            (fun (name, ts) ->
              Telemetry.Span.sim_instant ~cat:"steal" ~tid ~ts name)
            (List.rev tel.instants))
        tels;
      Telemetry.Span.count "domexec.domains" n;
      Telemetry.Span.count "domexec.steals" (Array.fold_left ( + ) 0 steals);
      Telemetry.Span.count "domexec.steal_lost"
        (Array.fold_left ( + ) 0 steal_lost);
      Telemetry.Span.count "domexec.chunks"
        (Array.fold_left ( + ) 0 chunks_run);
      Telemetry.Span.count "domexec.merges" merges.(0)
    end;
    let loops =
      List.map
        (fun lid ->
          {
            lr_lid = lid;
            lr_decision =
              Option.value ~default:Distributed
                (Hashtbl.find_opt pp.pp_decisions lid);
            lr_invocations =
              Option.value ~default:0 (Hashtbl.find_opt counts.lc_inv lid);
            lr_iterations =
              Option.value ~default:0 (Hashtbl.find_opt counts.lc_iters lid);
          })
        lids
    in
    {
      dx_exit = codes.(0);
      dx_output = outs.(0);
      dx_requested = requested;
      dx_domains = n;
      dx_wall_ns = wall;
      dx_steals = Array.fold_left ( + ) 0 steals;
      dx_steal_lost = Array.fold_left ( + ) 0 steal_lost;
      dx_chunks_run = chunks_run;
      dx_merges = merges.(0);
      dx_loops = loops;
      dx_fallback = None;
      dx_machine = machines.(0);
    }
