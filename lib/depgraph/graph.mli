(** Loop-level data dependence graphs (Definition 1 of the paper).

    Vertices are the static memory-access sites of a loop (identified
    by access id); edges record flow, anti- and output dependences,
    each flagged loop-carried or loop-independent. The graph also
    carries the per-access properties of Definitions 2-3
    (upwards-exposed loads, downwards-exposed stores) and the dynamic
    access counts behind Figure 8. *)

open Minic

type dep_kind = Flow | Anti | Output

val equal_dep_kind : dep_kind -> dep_kind -> bool
val show_dep_kind : dep_kind -> string

type edge = {
  e_src : Ast.aid;  (** earlier access (source of the dependence) *)
  e_dst : Ast.aid;  (** later access (sink) *)
  e_kind : dep_kind;
  e_carried : bool;  (** loop-carried (vs. loop-independent) *)
}

val equal_edge : edge -> edge -> bool
val show_edge : edge -> string

(** One static access site of the loop. *)
type site = {
  s_aid : Ast.aid;
  s_kind : Visit.access_kind;
  s_text : string;  (** rendered lvalue, for reports *)
}

(** Pseudo access id standing for the world outside the loop, used as
    an edge endpoint when citing loop-boundary dependences (the
    concrete witnesses behind Definition 2/3 exposure marks). *)
val boundary : Ast.aid

type t = {
  loop : Ast.lid;
  sites : site list;
  edges : (edge, unit) Hashtbl.t;
  upwards_exposed : (Ast.aid, unit) Hashtbl.t;
  downwards_exposed : (Ast.aid, unit) Hashtbl.t;
  killed_after_loop : (Ast.aid, unit) Hashtbl.t;
      (** stores whose last-written value a post-loop store overwrote *)
  dyn_counts : (Ast.aid, int) Hashtbl.t;
  mutable iterations : int;  (** total iterations over all invocations *)
  mutable invocations : int;
  mutable loop_cycles : int;  (** cycles spent inside the loop *)
  mutable total_cycles : int;  (** cycles of the whole program run *)
}

val create : Ast.lid -> site list -> t
val add_edge : t -> src:Ast.aid -> dst:Ast.aid -> kind:dep_kind -> carried:bool -> unit
val remove_edge : t -> edge -> unit

(** Deep copy: mutating the copy (fault injection) leaves the original
    intact. *)
val copy : t -> t
val mark_upwards_exposed : t -> Ast.aid -> unit
val mark_downwards_exposed : t -> Ast.aid -> unit
val mark_killed_after_loop : t -> Ast.aid -> unit
val edges : t -> edge list
val is_upwards_exposed : t -> Ast.aid -> bool
val is_downwards_exposed : t -> Ast.aid -> bool
val is_killed_after_loop : t -> Ast.aid -> bool
val dyn_count : t -> Ast.aid -> int

(** Does [aid] participate (as source or sink) in an edge satisfying
    the predicate? *)
val involved_in : t -> Ast.aid -> (edge -> bool) -> bool

val in_carried_flow : t -> Ast.aid -> bool
val in_carried_anti_or_output : t -> Ast.aid -> bool
val in_any_carried : t -> Ast.aid -> bool

(** Loop-independent dependences, the equivalence generator of
    Definition 4. *)
val independent_pairs : t -> (Ast.aid * Ast.aid) list

val site : t -> Ast.aid -> site option
val pp_dep_kind : Format.formatter -> dep_kind -> unit
val dep_kind_name : dep_kind -> string

(** Total order on edges for deterministic evidence lists. *)
val compare_edge : edge -> edge -> int

(** Edges involving [aid] (as source or sink), sorted. *)
val edges_involving : t -> Ast.aid -> edge list

(** Edges involving any of [aids], sorted and deduplicated. *)
val edges_involving_any : t -> Ast.aid list -> edge list

(** Rendered access site; stores carry a ["="] prefix. *)
val site_text : t -> Ast.aid -> string

(** One-line citation of a dependence edge against the graph's site
    texts, e.g. ["=a[i] -anti/carried-> a[j]"]. *)
val cite_edge : t -> edge -> string

(** Human-readable dump (the dsexpand CLI's --dump-deps). *)
val to_string : t -> string
