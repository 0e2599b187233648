(** Dynamic data-dependence profiling.

    The paper obtains its loop-level dependence graphs from off-line
    profiling runs ([38,39] in its references) followed by manual
    verification; this module plays that role. It executes the program
    once under the interpreter's access observer and builds the exact
    graph of Definition 1 at byte granularity:

    - a read of a byte last written in the same iteration is a
      loop-independent flow dependence; written in an earlier iteration,
      a loop-carried one (the "covered by previous writes in the same
      iteration" clause falls out of tracking the most recent write);
    - a write over a byte read since its last write yields anti
      dependences (carried iff the read was in an earlier iteration);
    - a write over a previously written byte yields an output
      dependence;
    - a read with no in-loop write before it is upwards-exposed; a
      value written in the loop and read after the loop exits marks its
      writer downwards-exposed.

    Byte granularity makes recasting idioms (bzip2's short/int [zptr])
    profile correctly. *)

open Minic

type profile = {
  graph : Graph.t;
  stats : Interp.Machine.stats;  (** whole-program instruction counts *)
  exit_code : int;
  output : string;
  peak_bytes : int;
}

(** Function names called within a statement. *)
let calls_of_stmt (s : Ast.stmt) : string list =
  let acc = ref [] in
  ignore
    (Visit.map_stmt
       (fun s ->
         (match s.Ast.skind with
         | Ast.Scall (_, f, _) -> acc := f :: !acc
         | _ -> ());
         s)
       s);
  !acc

(** Functions transitively reachable from calls inside [stmt]. *)
let reachable_funs (prog : Ast.program) (stmt : Ast.stmt) : Ast.fundef list =
  let seen = Hashtbl.create 8 in
  let rec visit names =
    List.iter
      (fun name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          match Ast.find_fun prog name with
          | Some f -> visit (calls_of_stmt f.Ast.fbody)
          | None -> () (* builtin *)
        end)
      names
  in
  visit (calls_of_stmt stmt);
  List.filter (fun f -> Hashtbl.mem seen f.Ast.fname) (Ast.functions prog)

(** Static access sites of a loop: its body and condition (+ step for
    for-loops; the for-init runs outside the iteration space), plus
    the bodies of all functions transitively callable from the loop —
    Definition 1's vertex set is "all memory accesses potentially
    executed in the loop". *)
let loop_sites (prog : Ast.program) (loop_stmt : Ast.stmt) : Graph.site list =
  let of_access (a : Visit.access) =
    {
      Graph.s_aid = a.Visit.acc_aid;
      s_kind = a.Visit.acc_kind;
      s_text = Pretty.lval_text a.Visit.acc_lval;
    }
  in
  let exp_accesses e =
    List.rev (Visit.fold_exp_accesses (fun acc a -> a :: acc) [] e)
  in
  let direct =
    match loop_stmt.Ast.skind with
    | Ast.Swhile (_, c, body) -> exp_accesses c @ Visit.accesses_of_stmt body
    | Ast.Sfor (_, _, c, step, body) ->
      exp_accesses c @ Visit.accesses_of_stmt step
      @ Visit.accesses_of_stmt body
    | _ -> invalid_arg "loop_sites: not a loop"
  in
  let callee =
    List.concat_map Visit.accesses_of_fun (reachable_funs prog loop_stmt)
  in
  List.map of_access (direct @ callee)

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* Four planes per byte (DESIGN.md, "Paged shadow memory"); every value
   is 0 in a fresh page:
   - [p_waid]: last in-loop writer's aid + 1; 0 when never written, or
     last written outside the loop (so [w_inloop] is [waid > 0]);
   - [p_wtime]: that write's [pack invocation iteration];
   - [p_rhead]: the most recent reader since that write,
     [pack aid iteration];
   - [p_rmeta]: [pack (invocation + 1) cell] — the invocation the
     readers belong to, and the side-store cell holding the older ones.
     Readers stamped with an older invocation are dead: they are
     dropped when the byte is next touched, never swept. *)
let p_waid = 0
let p_wtime = 1
let p_rhead = 2
let p_rmeta = 3
let planes = 4
let bits = 31
let low = (1 lsl bits) - 1
let pack hi lo = (hi lsl bits) lor lo

(* Older readers of a byte: linked cells in one growable int array.
   Cell [c] holds a packed reader at [2c] and the next cell at [2c + 1];
   cell 0 is nil. A byte's chain is freed when a write clears its
   readers or when they are found stale, so the store holds live
   readers only. *)
type side = {
  mutable cells : int array;
  mutable free : int;  (** free-list head *)
  mutable top : int;  (** first cell never handed out *)
}

let side_create () = { cells = Array.make 4096 0; free = 0; top = 1 }

let cell_alloc sd reader next =
  let c =
    if sd.free <> 0 then begin
      let c = sd.free in
      sd.free <- sd.cells.((2 * c) + 1);
      c
    end
    else begin
      let c = sd.top in
      if (2 * c) + 1 >= Array.length sd.cells then begin
        let a = Array.make (2 * Array.length sd.cells) 0 in
        Array.blit sd.cells 0 a 0 (Array.length sd.cells);
        sd.cells <- a
      end;
      sd.top <- c + 1;
      c
    end
  in
  sd.cells.(2 * c) <- reader;
  sd.cells.((2 * c) + 1) <- next;
  c

(* Splice the chain starting at [c] onto the free list. *)
let chain_free sd c =
  if c <> 0 then begin
    let t = ref c in
    while sd.cells.((2 * !t) + 1) <> 0 do
      t := sd.cells.((2 * !t) + 1)
    done;
    sd.cells.((2 * !t) + 1) <- sd.free;
    sd.free <- c
  end

(* Edges already added to the graph, as int keys: an open-addressed set
   (-1 = empty) behind a cache of the last key, so the byte loop of a
   multi-byte access reaches [Graph.add_edge] once per new edge. *)
type seen = {
  mutable keys : int array;
  mutable count : int;
  mutable last : int;
}

let seen_create () = { keys = Array.make 256 (-1); count = 0; last = -1 }

let rec seen_add st key =
  let mask = Array.length st.keys - 1 in
  let h = key * 0x1E3779B97F4A7C15 in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while st.keys.(!i) <> -1 && st.keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  if st.keys.(!i) = key then false
  else if 2 * (st.count + 1) > Array.length st.keys then begin
    let old = st.keys in
    st.keys <- Array.make (2 * Array.length old) (-1);
    st.count <- 0;
    Array.iter (fun k -> if k <> -1 then ignore (seen_add st k)) old;
    seen_add st key
  end
  else begin
    st.keys.(!i) <- key;
    st.count <- st.count + 1;
    true
  end

(* Keys pack (src, dst, kind, carried); aids beyond [key_aids] bypass
   the set and go straight to the graph's own membership test. *)
let key_aids = 1 lsl 29

let add_edge g st ~src ~dst ~kind ~carried =
  if src >= 0 && src < key_aids && dst >= 0 && dst < key_aids then begin
    let code =
      match kind with Graph.Flow -> 0 | Graph.Anti -> 1 | Graph.Output -> 2
    in
    let key =
      (src lsl 32) lor (dst lsl 3) lor (code lsl 1) lor Bool.to_int carried
    in
    if key <> st.last then begin
      st.last <- key;
      if seen_add st key then Graph.add_edge g ~src ~dst ~kind ~carried
    end
  end
  else Graph.add_edge g ~src ~dst ~kind ~carried

(* Set a per-aid mark: a dense flag array filters repeats, so the
   graph's table sees each aid once, in first-marking order. *)
let mark set flags aid =
  if aid >= 0 && aid < Bytes.length flags then begin
    if Bytes.unsafe_get flags aid = '\000' then begin
      Bytes.unsafe_set flags aid '\001';
      set aid
    end
  end
  else set aid

(** Profile [lid] by running the whole program once. *)
let profile (prog : Ast.program) (lid : Ast.lid) : profile =
  Telemetry.Span.wall "phase.profile" @@ fun () ->
  let loop_stmt =
    match Visit.find_loop_fun prog lid with
    | Some (_, s) -> s
    | None -> invalid_arg (Printf.sprintf "profile: no loop with id %d" lid)
  in
  let g = Graph.create lid (loop_sites prog loop_stmt) in
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  let mem = st.Interp.Machine.mem in
  (* [load] stamped the program's last aids, so every observed aid is
     below [naids] *)
  let naids =
    List.fold_left
      (fun n s -> max n (s.Graph.s_aid + 1))
      prog.Ast.next_aid g.Graph.sites
  in
  let is_site = Bytes.make naids '\000' in
  List.iter
    (fun s -> if s.Graph.s_aid >= 0 then Bytes.set is_site s.Graph.s_aid '\001')
    g.Graph.sites;
  let counts = Array.make naids 0 in
  let counted = ref [] in
  let up = Bytes.make naids '\000'
  and down = Bytes.make naids '\000'
  and killed = Bytes.make naids '\000' in
  let set_up = Graph.mark_upwards_exposed g
  and set_down = Graph.mark_downwards_exposed g
  and set_killed = Graph.mark_killed_after_loop g in
  let sh = Shadow.create ~planes () in
  let sd = side_create () in
  let seen = seen_create () in
  let in_loop = ref false in
  let cur_iter = ref 0 in
  let cur_inv = ref (-1) in
  let enter_cycles = ref 0 in
  let hook l ev =
    if l = lid then
      match ev with
      | Interp.Machine.Enter ->
        in_loop := true;
        incr cur_inv;
        cur_iter := 0;
        g.Graph.invocations <- g.Graph.invocations + 1;
        enter_cycles := st.Interp.Machine.cycles
      | Interp.Machine.Iter i -> cur_iter := i
      | Interp.Machine.Exit ->
        in_loop := false;
        (* the trailing Iter only ran the failing condition *)
        g.Graph.iterations <- g.Graph.iterations + !cur_iter;
        g.Graph.loop_cycles <-
          g.Graph.loop_cycles + (st.Interp.Machine.cycles - !enter_cycles)
  in
  (* In-loop read of the byte at index [s] of page [p]. [reader] is the
     packed reader to record, or -1 for an aid outside the loop's
     sites: only site readers can source an anti dependence. *)
  let load_byte p s aid inv iter reader =
    let waid = Array.unsafe_get p (p_waid + s) in
    if waid > 0 then begin
      let wt = Array.unsafe_get p (p_wtime + s) in
      if wt lsr bits = inv then
        add_edge g seen ~src:(waid - 1) ~dst:aid ~kind:Graph.Flow
          ~carried:(wt land low < iter)
      else begin
        (* written by a previous invocation, read by this one:
           live-out of the loop and live-in to it *)
        mark set_down down (waid - 1);
        mark set_up up aid
      end
    end
    else mark set_up up aid;
    if reader >= 0 then begin
      let stamp = inv + 1 in
      let meta = Array.unsafe_get p (p_rmeta + s) in
      if meta lsr bits <> stamp then begin
        chain_free sd (meta land low);
        Array.unsafe_set p (p_rhead + s) reader;
        Array.unsafe_set p (p_rmeta + s) (pack stamp 0)
      end
      else begin
        (* an exact repeat of the head would cite the same anti edge
           right after it: skip it *)
        let head = Array.unsafe_get p (p_rhead + s) in
        if head <> reader then begin
          let c = cell_alloc sd head (meta land low) in
          Array.unsafe_set p (p_rhead + s) reader;
          Array.unsafe_set p (p_rmeta + s) (pack stamp c)
        end
      end
    end
  in
  let anti aid iter r =
    add_edge g seen ~src:(r lsr bits) ~dst:aid ~kind:Graph.Anti
      ~carried:(r land low < iter)
  in
  (* In-loop write of the byte at index [s] of page [p]. *)
  let store_byte p s aid inv iter =
    let waid = Array.unsafe_get p (p_waid + s) in
    if waid > 0 then begin
      let wt = Array.unsafe_get p (p_wtime + s) in
      if wt lsr bits = inv then
        add_edge g seen ~src:(waid - 1) ~dst:aid ~kind:Graph.Output
          ~carried:(wt land low < iter)
    end;
    let meta = Array.unsafe_get p (p_rmeta + s) in
    if meta <> 0 then begin
      let chain = meta land low in
      if meta lsr bits = inv + 1 then begin
        (* newest reader first, as they were read *)
        anti aid iter (Array.unsafe_get p (p_rhead + s));
        let c = ref chain in
        while !c <> 0 do
          anti aid iter sd.cells.(2 * !c);
          c := sd.cells.((2 * !c) + 1)
        done
      end;
      chain_free sd chain;
      Array.unsafe_set p (p_rmeta + s) 0
    end;
    Array.unsafe_set p (p_waid + s) (aid + 1);
    Array.unsafe_set p (p_wtime + s) (pack inv iter)
  in
  (* Out-of-loop write: the byte no longer holds an in-loop value. *)
  let clear_byte p s =
    let waid = Array.unsafe_get p (p_waid + s) in
    if waid > 0 then begin
      (* overwriting an in-loop value that was never read after the
         loop: a loop-boundary output dependence *)
      mark set_killed killed (waid - 1);
      Array.unsafe_set p (p_waid + s) 0
    end;
    let meta = Array.unsafe_get p (p_rmeta + s) in
    if meta <> 0 then begin
      chain_free sd (meta land low);
      Array.unsafe_set p (p_rmeta + s) 0
    end
  in
  let observe aid kind addr size =
    if !in_loop then begin
      let site =
        aid >= 0 && aid < naids && Bytes.unsafe_get is_site aid <> '\000'
      in
      if site then begin
        if counts.(aid) = 0 then counted := aid :: !counted;
        counts.(aid) <- counts.(aid) + 1
      end;
      let iter = !cur_iter and inv = !cur_inv in
      if not (Interp.Memory.in_bounds mem addr size) then
        (* a wild load, seen just before the interpreter faults on it:
           no byte of it can have been written *)
        mark set_up up aid
      else begin
        let p = Shadow.page sh addr and s = Shadow.index sh addr in
        (* the access's bytes are [planes] apart; one page lookup
           serves them all unless they straddle a page boundary *)
        let one_page = s + (size * planes) <= Array.length p in
        match kind with
        | Visit.Load ->
          let reader = if site then pack aid iter else -1 in
          if one_page then
            for i = 0 to size - 1 do
              load_byte p (s + (i * planes)) aid inv iter reader
            done
          else
            for a = addr to addr + size - 1 do
              load_byte (Shadow.page sh a) (Shadow.index sh a) aid inv iter
                reader
            done
        | Visit.Store ->
          if one_page then
            for i = 0 to size - 1 do
              store_byte p (s + (i * planes)) aid inv iter
            done
          else
            for a = addr to addr + size - 1 do
              store_byte (Shadow.page sh a) (Shadow.index sh a) aid inv iter
            done
      end
    end
    else
      (* outside the loop only bytes the loop wrote matter: untouched
         pages stay unallocated *)
      for a = addr to addr + size - 1 do
        let p = Shadow.find_page sh a in
        if Array.length p > 0 then begin
          let s = Shadow.index sh a in
          match kind with
          | Visit.Load ->
            let waid = Array.unsafe_get p (p_waid + s) in
            if waid > 0 then mark set_down down (waid - 1)
          | Visit.Store -> clear_byte p s
        end
      done
  in
  st.Interp.Machine.loop_hook <- Some hook;
  st.Interp.Machine.observer <- Some observe;
  (* a freed block's bytes carry no dependences into whatever is
     allocated there next: a thread-safe allocator would hand parallel
     threads distinct blocks (this is also what the paper's manual
     graph verification discards) *)
  st.Interp.Machine.free_hook <-
    Some
      (fun base size ->
        for a = base to base + size - 1 do
          let p = Shadow.find_page sh a in
          if Array.length p > 0 then
            chain_free sd
              (Array.unsafe_get p (p_rmeta + Shadow.index sh a) land low)
        done;
        Shadow.clear sh base size);
  let exit_code = Interp.Machine.run m in
  g.Graph.total_cycles <- st.Interp.Machine.cycles;
  (* first-count order, as an incremental table would have it *)
  List.iter
    (fun aid -> Hashtbl.replace g.Graph.dyn_counts aid counts.(aid))
    (List.rev !counted);
  if Telemetry.Sink.enabled () then begin
    Telemetry.Span.count "profile.sites" (List.length g.Graph.sites);
    Telemetry.Span.count "profile.edges" (Hashtbl.length g.Graph.edges)
  end;
  {
    graph = g;
    stats = st.Interp.Machine.stats;
    exit_code;
    output = Interp.Machine.output st;
    peak_bytes = Interp.Memory.peak_bytes st.Interp.Machine.mem;
  }
