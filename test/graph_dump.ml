(* A full dump of a profiled dependence graph, for comparing two
   profiles exactly: the --dump-deps text, the exposure and killed
   sets, the dynamic counts and loop counters, and [Graph.edges] in
   table order — the order [Classify] feeds edges into union-find, so
   a change there can move class roots. *)

open Depgraph

let aids tbl =
  Hashtbl.fold (fun aid () acc -> aid :: acc) tbl []
  |> List.sort compare |> List.map string_of_int |> String.concat ","

let to_string (g : Graph.t) : string =
  let counts =
    Hashtbl.fold (fun aid n acc -> (aid, n) :: acc) g.Graph.dyn_counts []
    |> List.sort compare
    |> List.map (fun (aid, n) -> Printf.sprintf "%d:%d" aid n)
  in
  let edges =
    List.map
      (fun (e : Graph.edge) ->
        Printf.sprintf "%d>%d:%s%s" e.Graph.e_src e.Graph.e_dst
          (Graph.dep_kind_name e.Graph.e_kind)
          (if e.Graph.e_carried then "/c" else ""))
      (Graph.edges g)
  in
  String.concat "\n"
    [
      Graph.to_string g;
      "up " ^ aids g.Graph.upwards_exposed;
      "down " ^ aids g.Graph.downwards_exposed;
      "killed " ^ aids g.Graph.killed_after_loop;
      "counts " ^ String.concat "," counts;
      Printf.sprintf
        "iterations %d invocations %d loop_cycles %d total_cycles %d"
        g.Graph.iterations g.Graph.invocations g.Graph.loop_cycles
        g.Graph.total_cycles;
      "edges " ^ String.concat "," edges;
    ]

let digest g = Digest.to_hex (Digest.string (to_string g))
