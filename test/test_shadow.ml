(* Tests for the paged shadow memory and the dependence profiler built
   on it: page geometry, byte accesses across page boundaries, range
   clearing, invocation stamping, and exact agreement with the
   reference profiler (graph and edge order) on random and
   hand-written programs. *)

open Minic
open Depgraph

let ps = Shadow.page_slots

let get sh plane addr =
  let p = Shadow.find_page sh addr in
  if Array.length p = 0 then 0 else p.(Shadow.index sh addr + plane)

let set sh plane addr v =
  (Shadow.page sh addr).(Shadow.index sh addr + plane) <- v

(* ------------------------------------------------------------------ *)
(* Shadow                                                              *)
(* ------------------------------------------------------------------ *)

let straddle_page () =
  let sh = Shadow.create ~planes:2 () in
  for a = ps - 2 to ps + 1 do
    set sh 1 a (a + 1)
  done;
  Alcotest.(check int) "two pages" 2 (Shadow.pages sh);
  for a = ps - 2 to ps + 1 do
    Alcotest.(check int)
      (Printf.sprintf "plane 1 at %d" a)
      (a + 1) (get sh 1 a);
    Alcotest.(check int) (Printf.sprintf "plane 0 at %d" a) 0 (get sh 0 a)
  done;
  Alcotest.(check int) "first slot of the second page" 0 (Shadow.index sh ps);
  Alcotest.(check int) "slots are [planes] apart" 2 (Shadow.index sh 1)

let granules () =
  let sh = Shadow.create ~granule_bits:3 ~planes:1 () in
  set sh 0 16 7;
  Alcotest.(check int) "same granule" 7 (get sh 0 23);
  Alcotest.(check int) "next granule" 0 (get sh 0 24);
  Alcotest.(check int) "previous granule" 0 (get sh 0 15);
  (* one page covers page_slots granules *)
  ignore (Shadow.page sh ((8 * ps) - 1));
  Alcotest.(check int) "still one page" 1 (Shadow.pages sh);
  ignore (Shadow.page sh (8 * ps));
  Alcotest.(check int) "next page" 2 (Shadow.pages sh)

let clear_spans_pages () =
  let sh = Shadow.create ~planes:2 () in
  for a = ps - 10 to ps + 9 do
    set sh 0 a 1;
    set sh 1 a 2
  done;
  Shadow.clear sh (ps - 5) 10;
  for a = ps - 10 to ps + 9 do
    let cleared = a >= ps - 5 && a < ps + 5 in
    Alcotest.(check (pair int int))
      (Printf.sprintf "planes at %d" a)
      (if cleared then (0, 0) else (1, 2))
      (get sh 0 a, get sh 1 a)
  done;
  (* clearing pages never touched allocates nothing *)
  Shadow.clear sh (10 * ps) (3 * ps);
  Alcotest.(check int) "no page allocated" 2 (Shadow.pages sh)

let past_directory () =
  let sh = Shadow.create ~planes:1 () in
  set sh 0 5 1;
  let far = 1 lsl 30 in
  Alcotest.(check int) "absent past the directory" 0 (get sh 0 far);
  Alcotest.(check int) "find_page allocates nothing" 1 (Shadow.pages sh);
  set sh 0 far 9;
  Alcotest.(check int) "far page" 9 (get sh 0 far);
  Alcotest.(check int) "low page survives growth" 1 (get sh 0 5);
  Alcotest.(check int) "two pages" 2 (Shadow.pages sh);
  Alcotest.check_raises "negative address"
    (Invalid_argument "Shadow.page: negative address") (fun () ->
      ignore (Shadow.page sh (-1)))

(* ------------------------------------------------------------------ *)
(* Profiler against the reference                                      *)
(* ------------------------------------------------------------------ *)

let parse src = Typecheck.parse_and_check ~file:"shadow" src

(* Profile every parallel loop with both profilers, each on its own
   parse: [Machine.load] stamps fresh access ids into the program, so
   the two runs must start from identical programs. *)
let both src =
  let p1 = parse src and p2 = parse src in
  List.map2
    (fun l1 l2 -> (Profiler.profile p1 l1, Ref_profiler.profile p2 l2))
    p1.Ast.parallel_loops p2.Ast.parallel_loops

let same (a : Profiler.profile) (r : Profiler.profile) =
  String.equal
    (Graph_dump.to_string a.Profiler.graph)
    (Graph_dump.to_string r.Profiler.graph)
  && a.Profiler.exit_code = r.Profiler.exit_code
  && String.equal a.Profiler.output r.Profiler.output

(* Profile [src]'s only parallel loop, checking it against the
   reference first. *)
let graph_of src =
  match both src with
  | [ (a, r) ] ->
    Alcotest.(check string)
      "matches the reference profiler"
      (Graph_dump.to_string r.Profiler.graph)
      (Graph_dump.to_string a.Profiler.graph);
    a.Profiler.graph
  | _ -> Alcotest.fail "expected one parallel loop"

let aid g kind text =
  match
    List.find_opt
      (fun (s : Graph.site) ->
        s.Graph.s_kind = kind && String.equal s.Graph.s_text text)
      g.Graph.sites
  with
  | Some s -> s.Graph.s_aid
  | None -> Alcotest.failf "no site %s" text

let has_edge g ~src ~dst kind carried =
  List.exists
    (fun (e : Graph.edge) ->
      e.Graph.e_src = src && e.Graph.e_dst = dst && e.Graph.e_kind = kind
      && e.Graph.e_carried = carried)
    (Graph.edges g)

(* Misaligned 4-byte stores and loads at every offset of a buffer
   longer than two pages: some of them straddle a page boundary. *)
let straddle_src =
  {|
char buf[8200];
int main(void)
{
  int i;
  int k;
  int s = 0;
  char *q = buf;
#pragma parallel
  for (i = 0; i < 4; i++) {
    for (k = i; k + 4 <= 8200; k = k + 4) *(int *)(q + k) = k + i;
    for (k = 0; k + 5 <= 8200; k = k + 4) s = s + *(int *)(q + k + 1);
  }
  printf("%d\n", s);
  return 0;
}|}

let straddling_accesses () =
  let g = graph_of straddle_src in
  let st = aid g Visit.Store "*((int *)(q + k))" in
  let ld = aid g Visit.Load "*((int *)(q + k + 1))" in
  Alcotest.(check bool) "flow within an iteration" true
    (has_edge g ~src:st ~dst:ld Graph.Flow false);
  Alcotest.(check bool) "flow across iterations" true
    (has_edge g ~src:st ~dst:ld Graph.Flow true)

(* bzip2's zptr: written as 2-byte shorts, read back as 4-byte ints in
   the same iteration. *)
let recast_src =
  {|
int zptr[64];
int main(void)
{
  int r;
  int k;
  int b = 0;
  short *zs;
#pragma parallel
  for (r = 0; r < 8; r++) {
    zs = (short *)zptr;
    for (k = 0; k < 128; k++) zs[k] = r + k;
    for (k = 0; k < 64; k++) b += zptr[k];
  }
  printf("%d\n", b);
  return 0;
}|}

let recast_flow () =
  let g = graph_of recast_src in
  let st = aid g Visit.Store "*(zs + k)" and ld = aid g Visit.Load "zptr[k]" in
  Alcotest.(check bool) "short stores flow into the int load" true
    (has_edge g ~src:st ~dst:ld Graph.Flow false);
  Alcotest.(check bool) "no carried flow into the int load" false
    (List.exists
       (fun (e : Graph.edge) ->
         e.Graph.e_dst = ld && e.Graph.e_kind = Graph.Flow && e.Graph.e_carried)
       (Graph.edges g));
  Alcotest.(check bool) "int load not upwards-exposed" false
    (Graph.is_upwards_exposed g ld)

(* A 12000-byte block, read before it is written, freed at the end of
   each iteration and handed out again by the next: the free must clear
   the block's shadow across page boundaries. *)
let free_src =
  {|
int main(void)
{
  int r;
  int k;
  int s = 0;
  int *blk;
#pragma parallel
  for (r = 0; r < 6; r++) {
    blk = (int *)malloc(sizeof(int) * 3000);
    for (k = 0; k < 3000; k++) s = s + blk[k];
    for (k = 0; k < 3000; k++) blk[k] = r + k;
    free(blk);
  }
  printf("%d\n", s);
  return 0;
}|}

let free_clears_pages () =
  let g = graph_of free_src in
  let ld = aid g Visit.Load "*(blk + k)" in
  Alcotest.(check bool) "no carried flow through the recycled block" false
    (Graph.in_carried_flow g ld);
  Alcotest.(check bool) "first read is upwards-exposed" true
    (Graph.is_upwards_exposed g ld)

(* Three invocations: the first only reads x, the later ones only
   write it. Readers of an older invocation must not yield anti
   dependences. *)
let stamp_src =
  {|
int x;
int y;
int main(void)
{
  int r;
  int i;
  for (r = 0; r < 3; r++) {
#pragma parallel
    for (i = 0; i < 4; i++) {
      if (r == 0) y = x;
      else x = i;
    }
  }
  printf("%d %d\n", x, y);
  return 0;
}|}

let stamping_drops_readers () =
  let g = graph_of stamp_src in
  Alcotest.(check int) "invocations" 3 g.Graph.invocations;
  let st = aid g Visit.Store "x" in
  Alcotest.(check bool) "no anti dependence into x" false
    (List.exists
       (fun (e : Graph.edge) ->
         e.Graph.e_kind = Graph.Anti && e.Graph.e_dst = st)
       (Graph.edges g));
  Alcotest.(check bool) "carried output on x" true
    (has_edge g ~src:st ~dst:st Graph.Output true)

(* The parallel loop re-entered from inside its own body. *)
let recursive_src =
  {|
int a[8];
void walk(int d)
{
  int i;
#pragma parallel
  for (i = 0; i < 4; i++) {
    a[i] = a[i] + d;
    if (d < 2 && i == 1) walk(d + 1);
    a[i + 4] = a[i];
  }
}
int main(void)
{
  walk(0);
  printf("%d %d\n", a[0], a[5]);
  return 0;
}|}

let recursive_matches () = ignore (graph_of recursive_src)

(* A load through a wild pointer inside the loop reaches the profiler
   just before the interpreter faults on it: the fault must surface,
   whatever the address, with no shadow page made for it. *)
let wild_src addr =
  Printf.sprintf
    {|
int main(void)
{
  int i;
  int s = 0;
  long w = %s;
  int *p = (int *)w;
#pragma parallel
  for (i = 0; i < 4; i++) {
    if (i == 2) s = s + *p;
  }
  return s;
}|}
    addr

let wild_loads_fault () =
  List.iter
    (fun addr ->
      let p = parse (wild_src addr) in
      match Profiler.profile p (List.hd p.Ast.parallel_loops) with
      | exception (Interp.Memory.Fault _ | Interp.Machine.Runtime_error _) ->
        ()
      | exception e ->
        Alcotest.failf "load at %s: %s" addr (Printexc.to_string e)
      | _ -> Alcotest.failf "load at %s: no fault" addr)
    [ "-8"; "1"; "1125899906842624" ]

(* `dune runtest` runs where [programs/] sits beside the executable;
   `dune exec` runs from the repository root. *)
let test_programs_match () =
  let dir =
    if Sys.file_exists "programs" then "programs" else "test/programs"
  in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".c" then
        let src =
          In_channel.with_open_bin (Filename.concat dir f)
            In_channel.input_all
        in
        List.iteri
          (fun i (a, r) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s loop %d" f i)
              true (same a r))
          (both src))
    (Sys.readdir dir)

let random_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"random programs: shadow profiler matches the reference"
    (QCheck.make Random_programs.gen_program ~print:(fun s -> s))
    (fun src -> List.for_all (fun (a, r) -> same a r) (both src))

(* Random reads and guarded writes of a small array, as ints and
   recast as shorts, over several invocations: bytes collect readers
   from many sites and iterations before a write cites them. *)
let gen_access_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let index =
    map2 (Printf.sprintf "(i * %d + %d) %% 8") (int_range 1 5) (int_range 0 7)
  in
  let stmt =
    oneof
      [
        map (Printf.sprintf "s = s + a[%s];") index;
        map (fun ix -> Printf.sprintf "s = s + h[2 * %s + 1];" ix) index;
        map3
          (fun m ix v ->
            Printf.sprintf "if (i %% %d == 0) a[%s] = s + %d;" m ix v)
          (int_range 1 4) index (int_range 0 9);
        map2
          (fun m ix -> Printf.sprintf "if (i %% %d == 1) h[2 * %s] = s;" m ix)
          (int_range 2 5) index;
      ]
  in
  let* body = list_size (int_range 2 8) stmt in
  let* iters = int_range 3 12 in
  let* invs = int_range 1 3 in
  return
    (Printf.sprintf
       {|
int a[8];
int main(void)
{
  int r;
  int i;
  int s = 0;
  short *h = (short *)a;
  for (r = 0; r < %d; r++) {
#pragma parallel
    for (i = 0; i < %d; i++) {
      %s
    }
  }
  printf("%%d\n", s);
  return 0;
}|}
       invs iters (String.concat "\n      " body))

let random_accesses_match_reference =
  QCheck.Test.make ~count:200
    ~name:"random access patterns: shadow profiler matches the reference"
    (QCheck.make gen_access_program ~print:(fun s -> s))
    (fun src -> List.for_all (fun (a, r) -> same a r) (both src))

let () =
  Alcotest.run "shadow"
    [
      ( "shadow",
        [
          Alcotest.test_case "access straddling a page" `Quick straddle_page;
          Alcotest.test_case "granules" `Quick granules;
          Alcotest.test_case "clear spanning pages" `Quick clear_spans_pages;
          Alcotest.test_case "address past the directory" `Quick past_directory;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "straddling accesses" `Quick straddling_accesses;
          Alcotest.test_case "recast flow" `Quick recast_flow;
          Alcotest.test_case "free clears pages" `Quick free_clears_pages;
          Alcotest.test_case "stamping drops old readers" `Quick
            stamping_drops_readers;
          Alcotest.test_case "recursive invocation" `Quick recursive_matches;
          Alcotest.test_case "wild loads fault" `Quick wild_loads_fault;
          Alcotest.test_case "test programs" `Quick test_programs_match;
          QCheck_alcotest.to_alcotest random_matches_reference;
          QCheck_alcotest.to_alcotest random_accesses_match_reference;
        ] );
    ]
