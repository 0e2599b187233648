(** The MiniC abstract machine.

    Programs are compiled once into OCaml closures over unboxed
    values: [int] for the integer kinds and pointers, [float] for
    float and double. A [long] is exact or the machine raises
    {!Runtime_error}: a constant, arithmetic result, conversion or
    8-byte load whose 64-bit value does not fit in a 63-bit [int]
    never yields a different value. The machine is
    deterministic and instrumented: every dynamic memory access
    reports (access id, kind, address, size) to an optional observer
    (the dependence profiler); every access may be surcharged by an
    optional access-cost hook (the cache model); loops report
    enter/iteration/exit events; frees report (base, size); cycle and
    instruction-class counters implement the cost model described in
    DESIGN.md. *)

open Minic

type stats = {
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_arith : int;
  mutable n_branches : int;
  mutable n_calls : int;
  mutable n_allocs : int;
}

(** [Iter i] fires {e before} iteration [i]'s condition is evaluated,
    so condition accesses attribute to the iteration about to run; a
    loop that exits via its condition reports one trailing [Iter]. *)
type loop_event = Enter | Iter of int | Exit

type state = {
  mem : Memory.t;
  out : Buffer.t;  (** captured program stdout *)
  global_addrs : (string, int) Hashtbl.t;
  stack_base : int;
  stack_limit : int;
  mutable sp : int;
  mutable frame : int;
  mutable cycles : int;
  stats : stats;
  mutable observer : (Ast.aid -> Visit.access_kind -> int -> int -> unit) option;
      (** fires on every access; for stores it fires {e after} the
          write, so an observer may read the just-stored value *)
  mutable access_extra : (Visit.access_kind -> int -> int -> int) option;
  mutable loop_hook : (Ast.lid -> loop_event -> unit) option;
  mutable free_hook : (int -> int -> unit) option;
  mutable alloc_hook : (Ast.aid option -> int -> int -> unit) option;
      (** (ret-store aid, base, requested size) after malloc / calloc /
          realloc; the aid is that of the call's return-value store *)
  mutable rand_state : int64;
  mutable fuel : int;  (** decremented per loop iteration and call *)
  mutable iter_skip : bool;
      (** set by a loop hook at [Iter i] to skip that iteration's body
          while still running the condition and step; the domain
          executor walks a distributed loop's traversal with this,
          executing only the chunks it owns. Cleared automatically
          after each iteration *)
  mutable bulk_hook : (int -> int option -> int -> unit) option;
      (** (dst, src, len) after a bulk byte move — memset (src =
          [None]), memcpy, and the copying half of realloc; complements
          [observer], which only reports scalar accesses *)
}

exception Runtime_error of string
exception Exit_program of int

(** A loaded (closure-compiled) program with its execution state. *)
type t = {
  st : state;
  prog : Ast.program;
  funs : (string, cfun option ref) Hashtbl.t;
  mutable inits : (unit -> unit) list;
}

and cfun

(** Address of a global variable.
    @raise Runtime_error for unknown names. *)
val global_addr : state -> string -> int

(** Poke/peek int globals from the host (the parallel simulator sets
    [__tid] between iterations and [__nthreads] before the run). *)
val set_global_int : state -> string -> int -> unit

val get_global_int : state -> string -> int

(** Captured stdout so far. *)
val output : state -> string

(** Compile-time constant folding over integer literals and [sizeof]. *)
val fold_constants : Types.composite_env -> Ast.exp -> Ast.exp

(** Compile a type-checked program into a runnable machine. *)
val load : Ast.program -> t

(** Run [main] (after global initializers); returns the exit code. *)
val run : t -> int

(** [load] + [run], returning (exit code, captured stdout). *)
val run_program : Ast.program -> int * string
