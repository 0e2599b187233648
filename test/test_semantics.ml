(* Golden semantics table of the interpreter.

   Every program below is run twice: once without hooks, recording the
   exit code (or runtime error), a digest of its output, the cycle
   count and the six instruction-class counters; and once with every
   hook installed (observer, access-cost, loop, alloc, free and bulk
   hooks), recording a digest of the hook calls in the order they came
   and the cycle count the access-cost hook's surcharges lead to. The
   table in [semantics.golden] pins all of it, so a change to the
   interpreter that moves a value, a charge or a hook call shows up
   here.

   The programs: the 8 workloads, the sample programs under
   [programs/], and 200 seeded programs from
   [Random_programs.gen_expr_program].

   Regenerate the table (only when a change is meant to alter the
   interpreter's semantics or its cost model) with
     dune exec test/test_semantics.exe -- record > test/semantics.golden
   The generated programs come from QCheck's combinators over OCaml's
   [Random]; a version of either that draws differently yields other
   programs, whose rows then have to be recorded again with an
   interpreter known to be right. *)

open Minic

let programs_dir =
  if Sys.file_exists "programs" then "programs" else "test/programs"

let golden_file =
  if Sys.file_exists "semantics.golden" then "semantics.golden"
  else "test/semantics.golden"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let n_generated = 200

let generated seed =
  QCheck.Gen.generate1
    ~rand:(Random.State.make [| seed |])
    Random_programs.gen_expr_program

(* (name, source), in table order *)
let programs () =
  List.map
    (fun (w : Workloads.Workload.t) -> ("workload:" ^ w.name, w.source))
    Workloads.Registry.all
  @ (Sys.readdir programs_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           ("program:" ^ f, read_file (Filename.concat programs_dir f))))
  @ List.init n_generated (fun i ->
        (Printf.sprintf "generated:%03d" (i + 1), generated (i + 1)))

let outcome run =
  match run () with
  | code -> Printf.sprintf "exit=%d" code
  | exception Interp.Machine.Runtime_error msg -> "runtime-error=" ^ String.escaped msg
  | exception Interp.Memory.Fault msg -> "fault=" ^ String.escaped msg

let plain_row p =
  let m = Interp.Machine.load p in
  let st = m.Interp.Machine.st in
  let res = outcome (fun () -> Interp.Machine.run m) in
  let s = st.Interp.Machine.stats in
  Printf.sprintf
    "%s out=%s cycles=%d loads=%d stores=%d arith=%d branches=%d calls=%d \
     allocs=%d"
    res
    (Digest.to_hex (Digest.string (Interp.Machine.output st)))
    st.Interp.Machine.cycles s.Interp.Machine.n_loads s.Interp.Machine.n_stores
    s.Interp.Machine.n_arith s.Interp.Machine.n_branches
    s.Interp.Machine.n_calls s.Interp.Machine.n_allocs

(* Order-sensitive digest of every hook call. *)
let hooked_row p =
  let m = Interp.Machine.load p in
  let st = m.Interp.Machine.st in
  let h = ref 0 and calls = ref 0 in
  let mix x =
    incr calls;
    h := (!h * 1_000_003) lxor x
  in
  let kind = function Visit.Load -> 1 | Visit.Store -> 2 in
  st.Interp.Machine.observer <-
    Some
      (fun aid k addr size ->
        mix 3;
        mix aid;
        mix (kind k);
        mix addr;
        mix size);
  st.Interp.Machine.access_extra <-
    Some
      (fun k addr size ->
        mix 5;
        mix (kind k);
        mix addr;
        mix size;
        addr land 3);
  st.Interp.Machine.loop_hook <-
    Some
      (fun lid ev ->
        mix 7;
        mix lid;
        match ev with
        | Interp.Machine.Enter -> mix (-1)
        | Interp.Machine.Iter i -> mix i
        | Interp.Machine.Exit -> mix (-2));
  st.Interp.Machine.alloc_hook <-
    Some
      (fun aid base size ->
        mix 11;
        mix (Option.value aid ~default:(-1));
        mix base;
        mix size);
  st.Interp.Machine.free_hook <-
    Some
      (fun base size ->
        mix 13;
        mix base;
        mix size);
  st.Interp.Machine.bulk_hook <-
    Some
      (fun dst src len ->
        mix 17;
        mix dst;
        mix (Option.value src ~default:(-1));
        mix len);
  let res = outcome (fun () -> Interp.Machine.run m) in
  Printf.sprintf "hooked=%s hooked_cycles=%d hook_calls=%d trace=%x" res
    st.Interp.Machine.cycles !calls !h

let row (name, src) =
  match Typecheck.parse_and_check ~file:name src with
  | exception Loc.Error (_, msg) ->
    Printf.sprintf "%s\tcompile-error=%s" name (String.escaped msg)
  | p -> Printf.sprintf "%s\t%s %s" name (plain_row p) (hooked_row p)

let golden () =
  String.split_on_char '\n' (read_file golden_file)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l '\t' with
         | Some i -> (String.sub l 0 i, l)
         | None -> Alcotest.failf "malformed golden line: %s" l)

let check_group prefix () =
  let want = golden () in
  let progs =
    List.filter (fun (n, _) -> String.starts_with ~prefix n) (programs ())
  in
  Alcotest.(check int)
    "programs in the table"
    (List.length (List.filter (fun (n, _) -> String.starts_with ~prefix n) want))
    (List.length progs);
  let bad =
    List.filter_map
      (fun ((name, _) as prog) ->
        let got = row prog in
        match List.assoc_opt name want with
        | Some w when String.equal w got -> None
        | Some w -> Some (Printf.sprintf "want %s\n got %s" w got)
        | None -> Some (Printf.sprintf "missing from the table: %s" got))
      progs
  in
  if bad <> [] then
    Alcotest.failf "%d program(s) differ from the golden table:\n%s"
      (List.length bad) (String.concat "\n" bad)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "record" then
    List.iter (fun p -> print_endline (row p)) (programs ())
  else
    Alcotest.run "semantics"
      [
        ( "golden",
          [
            Alcotest.test_case "workloads" `Quick (check_group "workload:");
            Alcotest.test_case "sample programs" `Quick
              (check_group "program:");
            Alcotest.test_case "generated programs" `Quick
              (check_group "generated:");
          ] );
      ]
