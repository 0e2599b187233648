(* Reference dependence profiler, for tests only: Definition 1 over a
   per-byte hashtable. Every byte keeps all its readers since the last
   write in a list and every edge is tested against the graph's own
   table, so it is slow but direct. test_depgraph checks that
   [Depgraph.Profiler] and its paged shadow build the same graph, edge
   order included. *)

open Minic
open Depgraph

(* Per-byte shadow state. [w_inv] is the loop invocation the write
   belongs to (-1 = written outside the loop). [readers] are reads
   since the last write, tagged with (aid, iteration, invocation). *)
type byte_state = {
  mutable w_aid : Ast.aid;  (** -1 when never written *)
  mutable w_iter : int;
  mutable w_inv : int;
  mutable w_inloop : bool;
  mutable readers : (Ast.aid * int * int) list;
}

let profile (prog : Ast.program) (lid : Ast.lid) : Profiler.profile =
  let loop_stmt =
    match Visit.find_loop_fun prog lid with
    | Some (_, s) -> s
    | None -> invalid_arg (Printf.sprintf "profile: no loop with id %d" lid)
  in
  let g = Graph.create lid (Profiler.loop_sites prog loop_stmt) in
  let site_aids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace site_aids s.Graph.s_aid ()) g.Graph.sites;
  let m = Interp.Machine.load prog in
  let st = m.Interp.Machine.st in
  let bytes : (int, byte_state) Hashtbl.t = Hashtbl.create (1 lsl 16) in
  let get_byte addr =
    match Hashtbl.find_opt bytes addr with
    | Some b -> b
    | None ->
      let b =
        { w_aid = -1; w_iter = 0; w_inv = -1; w_inloop = false; readers = [] }
      in
      Hashtbl.replace bytes addr b;
      b
  in
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
  let observe aid kind addr size =
    if !in_loop then begin
      if Hashtbl.mem site_aids aid then
        Hashtbl.replace g.Graph.dyn_counts aid (1 + Graph.dyn_count g aid);
      let iter = !cur_iter and inv = !cur_inv in
      match kind with
      | Visit.Load ->
        for i = 0 to size - 1 do
          let b = get_byte (addr + i) in
          if b.w_aid >= 0 && b.w_inloop then begin
            if b.w_inv = inv then
              Graph.add_edge g ~src:b.w_aid ~dst:aid ~kind:Graph.Flow
                ~carried:(b.w_iter < iter)
            else begin
              (* written by a previous invocation, read by this one:
                 live-out of the loop and live-in to it *)
              Graph.mark_downwards_exposed g b.w_aid;
              Graph.mark_upwards_exposed g aid
            end
          end
          else Graph.mark_upwards_exposed g aid;
          b.readers <- (aid, iter, inv) :: b.readers
        done
      | Visit.Store ->
        for i = 0 to size - 1 do
          let b = get_byte (addr + i) in
          if b.w_aid >= 0 && b.w_inloop && b.w_inv = inv then
            Graph.add_edge g ~src:b.w_aid ~dst:aid ~kind:Graph.Output
              ~carried:(b.w_iter < iter);
          List.iter
            (fun (raid, riter, rinv) ->
              if rinv = inv && Hashtbl.mem site_aids raid then
                Graph.add_edge g ~src:raid ~dst:aid ~kind:Graph.Anti
                  ~carried:(riter < iter))
            b.readers;
          b.w_aid <- aid;
          b.w_iter <- iter;
          b.w_inv <- inv;
          b.w_inloop <- true;
          b.readers <- []
        done
    end
    else begin
      match kind with
      | Visit.Load ->
        for i = 0 to size - 1 do
          match Hashtbl.find_opt bytes (addr + i) with
          | Some b when b.w_aid >= 0 && b.w_inloop ->
            Graph.mark_downwards_exposed g b.w_aid
          | _ -> ()
        done
      | Visit.Store ->
        for i = 0 to size - 1 do
          match Hashtbl.find_opt bytes (addr + i) with
          | Some b ->
            (* overwriting an in-loop value that was never read after
               the loop: a loop-boundary output dependence *)
            if b.w_aid >= 0 && b.w_inloop then
              Graph.mark_killed_after_loop g b.w_aid;
            b.w_aid <- -1;
            b.w_inloop <- false;
            b.readers <- []
          | None -> ()
        done
    end
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
        for i = base to base + size - 1 do
          Hashtbl.remove bytes i
        done);
  let exit_code = Interp.Machine.run m in
  g.Graph.total_cycles <- st.Interp.Machine.cycles;
  {
    Profiler.graph = g;
    stats = st.Interp.Machine.stats;
    exit_code;
    output = Interp.Machine.output st;
    peak_bytes = Interp.Memory.peak_bytes st.Interp.Machine.mem;
  }
