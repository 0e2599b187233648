(** The MiniC abstract machine.

    Programs are compiled once into OCaml closures (an order of
    magnitude faster than AST walking, which matters because the
    evaluation re-runs every benchmark under many configurations). The
    machine is deterministic and instrumented:

    - every dynamic memory access reports (access id, kind, address,
      size) to an optional {e observer} — the dependence profiler;
    - every access may be surcharged by an optional {e access-cost}
      hook — the cache model of the parallel simulator;
    - every loop reports enter / iteration / exit events to an optional
      {e loop hook} — the parallel simulator's scheduler;
    - cycle and instruction-class counters implement the cost model.

    All of C that the frontend accepts is supported; the interesting
    cases are byte-accurate struct layout, pointer arithmetic with
    scaling, 32-bit wraparound on [int] arithmetic, and type recasting
    through memory (bzip2's short/int [zptr] idiom).

    Values are unboxed. Each expression compiles to a closure of one
    kind, fixed by its static type: [unit -> int] for char, short,
    int, long and pointers, [unit -> float] for float and double.
    Integer kinds narrower than [long] are kept sign-extended to their
    width. A [long] (and a pointer) is exact: it is the 64-bit
    two's-complement value whenever that value fits in OCaml's 63-bit
    [int], and a constant, arithmetic result, conversion or 8-byte
    load whose value does not fit raises {!Runtime_error}, never a
    different value. Integer closures allocate nothing; a float
    closure's result is boxed by OCaml's calling convention. *)

open Minic

type stats = {
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_arith : int;
  mutable n_branches : int;
  mutable n_calls : int;
  mutable n_allocs : int;
}

let empty_stats () =
  {
    n_loads = 0;
    n_stores = 0;
    n_arith = 0;
    n_branches = 0;
    n_calls = 0;
    n_allocs = 0;
  }

type loop_event = Enter | Iter of int | Exit

type state = {
  mem : Memory.t;
  out : Buffer.t;
  global_addrs : (string, int) Hashtbl.t;
  stack_base : int;
  stack_limit : int;
  mutable sp : int;  (** next free stack byte *)
  mutable frame : int;  (** current frame base *)
  mutable cycles : int;
  stats : stats;
  mutable observer : (Ast.aid -> Visit.access_kind -> int -> int -> unit) option;
  mutable access_extra : (Visit.access_kind -> int -> int -> int) option;
  mutable loop_hook : (Ast.lid -> loop_event -> unit) option;
  mutable free_hook : (int -> int -> unit) option;
      (** (base, size) on free/realloc: a freed block's bytes carry no
          dependences into their next allocation (a thread-safe
          allocator hands parallel threads distinct blocks), so the
          dependence profiler clears their shadow state *)
  mutable alloc_hook : (Ast.aid option -> int -> int -> unit) option;
      (** (ret-store aid, base, requested size) after malloc / calloc /
          realloc; the aid is that of the call's return-value store,
          [None] when the result is discarded. Span guards use it to
          recognise expanded blocks by their allocation site *)
  mutable rand_state : int64;
  mutable fuel : int;  (** decremented per loop iteration and call *)
  mutable iter_skip : bool;
      (** when set by a loop hook at [Iter i], the body of that
          iteration is skipped (condition and step still run); the
          domain executor uses this to walk a distributed loop's
          traversal while executing only the iterations it owns *)
  mutable bulk_hook : (int -> int option -> int -> unit) option;
      (** (dst, src, len) after a bulk byte move: memset (src = None),
          memcpy and the copying half of realloc. Complements
          [observer], which only sees scalar accesses *)
}

exception Runtime_error of string
exception Exit_program of int

let runtime_error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

exception Break_exc
exception Continue_exc

(* The returned value travels in the machine's [result] slot. *)
exception Return_exc

(* ------------------------------------------------------------------ *)
(* Value helpers                                                       *)
(* ------------------------------------------------------------------ *)

(** A compiled expression: a closure of its static type's kind. *)
type code = Int of (unit -> int) | Flt of (unit -> float)

let float_got f = runtime_error "expected an integer value, got float %g" f

let int_code = function
  | Int c -> c
  | Flt c -> fun () -> float_got (c ())

let float_code = function
  | Flt c -> c
  | Int c -> fun () -> Float.of_int (c ())

let truthy_code = function
  | Int c -> fun () -> c () <> 0
  | Flt c -> fun () -> c () <> 0.0

(** Sign-extending truncation to the width of an integer kind, over the
    64-bit constants of the source; MiniC [int] arithmetic wraps at 32
    bits like the C it models. *)
let trunc_ikind64 (ik : Types.ikind) (v : int64) : int64 =
  match ik with
  | Types.ILong -> v
  | Types.IInt -> Int64.shift_right (Int64.shift_left v 32) 32
  | Types.IShort -> Int64.shift_right (Int64.shift_left v 48) 48
  | Types.IChar -> Int64.shift_right (Int64.shift_left v 56) 56

(** The same truncation on a native value ([long] is already exact). *)
let[@inline] trunc_ikind (ik : Types.ikind) (v : int) : int =
  match ik with
  | Types.ILong -> v
  | Types.IInt -> (v lsl 31) asr 31
  | Types.IShort -> (v lsl 47) asr 47
  | Types.IChar -> (v lsl 55) asr 55

let round_float_kind (fk : Types.fkind) (f : float) : float =
  match fk with
  | Types.FDouble -> f
  | Types.FFloat -> Int32.float_of_bits (Int32.bits_of_float f)

(* [long] range: a 64-bit result outside OCaml's [int] is never
   silently replaced by another value. The checks compute in [Int64]
   only on the slow path, or where 64-bit wraparound can bring a
   result back into range (multiply, shift left). *)

let long_range (v : int64) =
  runtime_error "long value %Ld is outside the interpreter's 63-bit range" v

let[@inline] int_of_int64 (r : int64) : int =
  let hi = Int64.to_int (Int64.shift_right r 62) in
  if hi = 0 || hi = -1 then Int64.to_int r else long_range r

let[@inline] ladd x y =
  let r = x + y in
  if (x lxor r) land (y lxor r) < 0 then
    long_range (Int64.add (Int64.of_int x) (Int64.of_int y))
  else r

let[@inline] lsub x y =
  let r = x - y in
  if (x lxor y) land (x lxor r) < 0 then
    long_range (Int64.sub (Int64.of_int x) (Int64.of_int y))
  else r

let[@inline] lmul x y = int_of_int64 (Int64.mul (Int64.of_int x) (Int64.of_int y))

let[@inline] lneg x =
  if x = min_int then long_range (Int64.neg (Int64.of_int x)) else -x

let[@inline] lshl x k = int_of_int64 (Int64.shift_left (Int64.of_int x) k)

(** Float to integer conversion. A cast maps NaN to 0 before calling
    this; an assignment or argument converts without that rule (C
    leaves it undefined, the model takes the hardware's result). *)
let[@inline] int_of_float_kind (ik : Types.ikind) (f : float) : int =
  match ik with
  | Types.ILong -> int_of_int64 (Int64.of_float f)
  | ik -> trunc_ikind ik (Int64.to_int (Int64.of_float f))

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let stack_size = 4 lsl 20

let make_state () : state =
  let mem = Memory.create ~initial:(8 lsl 20) () in
  (* the simulated call stack is machinery, not program data:
     keep it out of the heap/static footprint that Figure 14 measures *)
  let stack_base = Memory.alloc ~track:false mem stack_size in
  {
    mem;
    out = Buffer.create 256;
    global_addrs = Hashtbl.create 32;
    stack_base;
    stack_limit = stack_base + stack_size;
    sp = stack_base;
    frame = stack_base;
    cycles = 0;
    stats = empty_stats ();
    observer = None;
    access_extra = None;
    loop_hook = None;
    free_hook = None;
    alloc_hook = None;
    rand_state = 0x9E3779B97F4A7C15L;
    fuel = 2_000_000_000;
    iter_skip = false;
    bulk_hook = None;
  }

let global_addr st name =
  match Hashtbl.find_opt st.global_addrs name with
  | Some a -> a
  | None -> runtime_error "unknown global '%s'" name

(** Poke/peek globals from the host (the parallel simulator uses this
    to set [__tid] between iterations). *)
let set_global_int st name (v : int) = Memory.store st.mem (global_addr st name) 4 v

let get_global_int st name = Memory.load st.mem (global_addr st name) 4

let output st = Buffer.contents st.out

(* ------------------------------------------------------------------ *)
(* Access accounting                                                   *)
(* ------------------------------------------------------------------ *)

let do_load st aid addr size =
  st.stats.n_loads <- st.stats.n_loads + 1;
  st.cycles <-
    st.cycles + Cost.load
    + (match st.access_extra with
      | None -> 0
      | Some f -> f Visit.Load addr size);
  (match st.observer with None -> () | Some f -> f aid Visit.Load addr size)

let do_store st aid addr size =
  st.stats.n_stores <- st.stats.n_stores + 1;
  st.cycles <-
    st.cycles + Cost.store
    + (match st.access_extra with
      | None -> 0
      | Some f -> f Visit.Store addr size);
  (match st.observer with None -> () | Some f -> f aid Visit.Store addr size)

(* Register-resident scalars: a compiler keeps a non-address-taken
   scalar local in a register, so its accesses cost one issue slot and
   never touch the cache model. The dependence observer still sees
   them (they are accesses, and argument/stack reuse must profile
   correctly); only the cost differs. *)
let do_load_reg st aid addr size =
  st.stats.n_loads <- st.stats.n_loads + 1;
  st.cycles <- st.cycles + Cost.arith;
  match st.observer with None -> () | Some f -> f aid Visit.Load addr size

let do_store_reg st aid addr size =
  st.stats.n_stores <- st.stats.n_stores + 1;
  st.cycles <- st.cycles + Cost.arith;
  match st.observer with None -> () | Some f -> f aid Visit.Store addr size

let charge st c = st.cycles <- st.cycles + c

let burn_fuel st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then runtime_error "fuel exhausted (infinite loop?)"

(* An in-bounds 8-byte load faults only when its value does not fit in
   63 bits: for the program that is a value error, not a bad access. *)
let load_long st addr =
  match Memory.load st.mem addr 8 with
  | v -> v
  | exception Memory.Fault msg when Memory.in_bounds st.mem addr 8 ->
    raise (Runtime_error msg)

let[@inline] load_int st addr width =
  if width = 8 then load_long st addr else Memory.load st.mem addr width

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(** Where a returning function leaves its value; one per machine. *)
type result = { mutable r_int : int; mutable r_float : float }

type formal = {
  fo_off : int;  (** frame offset *)
  fo_width : int;
  fo_aid : Ast.aid;
      (** the synthetic access id of the argument-binding store.
          Binding an argument writes the formal's stack slot and must
          be visible to the dependence profiler like any other store —
          otherwise a stale local of a previously-popped frame at the
          same address would appear to flow into the formal. *)
  fo_int : int -> int -> unit;  (** store an int argument at an address *)
  fo_float : int -> float -> unit;
}

type cfun = {
  cf_frame_size : int;
  cf_formals : formal array;
  cf_body : unit -> unit;
      (** raises [Return_exc] after filling [cf_result] *)
  cf_ret : Types.ty;
  cf_result : result;
}

type t = {
  st : state;
  prog : Ast.program;
  funs : (string, cfun option ref) Hashtbl.t;
  mutable inits : (unit -> unit) list;  (** global initializers, in order *)
}

let scalar_width _comps loc (t : Types.ty) : int =
  match t with
  | Types.Tint ik -> Types.ikind_size ik
  | Types.Tfloat fk -> Types.fkind_size fk
  | Types.Tptr _ -> 8
  | t ->
    Loc.error loc "expected a scalar type, got %s" (Types.show_ty t)

(** Store an int value into a scalar of static type [t] at an address,
    converting it to the destination representation first (argument
    binding and call results convert like this, without a cast). *)
let int_storer st loc (t : Types.ty) : int -> int -> unit =
  match t with
  | Types.Tint ik ->
    let w = Types.ikind_size ik in
    fun addr v -> Memory.store st.mem addr w v
  | Types.Tfloat fk ->
    let w = Types.fkind_size fk in
    fun addr v -> Memory.store_float st.mem addr w (Float.of_int v)
  | Types.Tptr _ -> fun addr v -> Memory.store st.mem addr 8 v
  | t -> Loc.error loc "cannot store into type %s" (Types.show_ty t)

let float_storer st loc (t : Types.ty) : int -> float -> unit =
  match t with
  | Types.Tint ik ->
    let w = Types.ikind_size ik in
    fun addr f -> Memory.store st.mem addr w (int_of_float_kind ik f)
  | Types.Tfloat fk ->
    let w = Types.fkind_size fk in
    fun addr f -> Memory.store_float st.mem addr w f
  | Types.Tptr _ -> fun _ f -> float_got f
  | t -> Loc.error loc "cannot store into type %s" (Types.show_ty t)

type ctx = {
  m : t;
  fe : Typecheck.fenv;
  slots : (string, int) Hashtbl.t;  (** local name -> frame offset *)
  regs : (string, unit) Hashtbl.t;
      (** register-allocatable locals: scalar, address never taken *)
  result : result;
}

let comps ctx = ctx.m.prog.Ast.comps

let is_float_ty t = match Types.decay t with Types.Tfloat _ -> true | _ -> false

(** Coerce a compiled value from type [src] to type [dst]. *)
let coerce loc ~(src : Types.ty) ~(dst : Types.ty) (c : code) : code =
  match (Types.decay src, Types.decay dst) with
  | a, b when Types.equal_ty a b -> c
  | (Types.Tint _ | Types.Tptr _), Types.Tint Types.ILong -> Int (int_code c)
  | (Types.Tint _ | Types.Tptr _), Types.Tint ik ->
    let c = int_code c in
    Int (fun () -> trunc_ikind ik (c ()))
  | Types.Tfloat _, Types.Tint ik ->
    let c = float_code c in
    Int
      (fun () ->
        let f = c () in
        if Float.is_nan f then 0 else int_of_float_kind ik f)
  | Types.Tint _, Types.Tfloat fk ->
    let c = int_code c in
    Flt (fun () -> round_float_kind fk (Float.of_int (c ())))
  | Types.Tfloat _, Types.Tfloat fk ->
    let c = float_code c in
    Flt (fun () -> round_float_kind fk (c ()))
  | (Types.Tptr _ | Types.Tint _), Types.Tptr _ -> c
  | a, b ->
    Loc.error loc "cannot convert %s to %s" (Types.show_ty a) (Types.show_ty b)

(** Bottom-up constant folding at compile time: integer arithmetic
    over literals and [sizeof] collapses to a literal, as any real
    compiler's folding would (redirection expressions such as
    [__tid * span] rely on this after §3.4's constant propagation). *)
let rec fold_constants comps (e : Ast.exp) : Ast.exp =
  match e with
  | Ast.SizeofType t ->
    Ast.Const (Ast.Cint (Int64.of_int (Types.sizeof comps Loc.dummy t), Types.ILong))
  | Ast.Unop (op, a) -> (
    match (op, fold_constants comps a) with
    | Ast.Neg, Ast.Const (Ast.Cint (v, ik)) ->
      Ast.Const (Ast.Cint (trunc_ikind64 (Types.promote_ikind ik) (Int64.neg v), ik))
    | Ast.Bitnot, Ast.Const (Ast.Cint (v, ik)) ->
      Ast.Const (Ast.Cint (trunc_ikind64 (Types.promote_ikind ik) (Int64.lognot v), ik))
    | _, a -> Ast.Unop (op, a))
  | Ast.Binop (op, a, b) -> (
    let a = fold_constants comps a and b = fold_constants comps b in
    match (op, a, b) with
    | Ast.Add, Ast.Const (Ast.Cint (x, k1)), Ast.Const (Ast.Cint (y, k2)) ->
      fold_int Int64.add x k1 y k2
    | Ast.Sub, Ast.Const (Ast.Cint (x, k1)), Ast.Const (Ast.Cint (y, k2)) ->
      fold_int Int64.sub x k1 y k2
    | Ast.Mul, Ast.Const (Ast.Cint (x, k1)), Ast.Const (Ast.Cint (y, k2)) ->
      fold_int Int64.mul x k1 y k2
    | _ -> Ast.Binop (op, a, b))
  | Ast.Cast (t, a) -> (
    match (t, fold_constants comps a) with
    | Types.Tint ik, Ast.Const (Ast.Cint (v, _)) ->
      Ast.Const (Ast.Cint (trunc_ikind64 ik v, ik))
    | t, a -> Ast.Cast (t, a))
  | e -> e

and fold_int f x k1 y k2 =
  let k =
    if Types.ikind_size k1 >= Types.ikind_size k2 then Types.promote_ikind k1
    else Types.promote_ikind k2
  in
  Ast.Const (Ast.Cint (trunc_ikind64 k (f x y), k))

(** Is a compile-time constant operand a power of two (modelling
    strength reduction of multiplications into shifts)? *)
let const_pow2 = function
  | Ast.Const (Ast.Cint (v, _)) -> v > 0L && Int64.logand v (Int64.pred v) = 0L
  | _ -> false

(* Evaluation order is observable: the observer and the cache model see
   accesses in it. A binary operator charges first, then runs [b]
   before [a], except that pointer + integer with the pointer on the
   right runs the integer [a] first. *)
let rec compile_exp (ctx : ctx) (e : Ast.exp) : code =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let e = fold_constants (comps ctx) e in
  match e with
  | Ast.Const (Cint (v, ik)) ->
    let v = trunc_ikind64 ik v in
    let n = Int64.to_int v in
    if Int64.equal (Int64.of_int n) v then Int (fun () -> n)
    else Int (fun () -> long_range v)
  | Ast.Const (Cfloat (f, fk)) ->
    let v = round_float_kind fk f in
    Flt (fun () -> v)
  | Ast.Const (Cstr s) ->
    let addr = Memory.write_cstring st.mem s in
    Int (fun () -> addr)
  | Ast.Lval (aid, lv) -> (
    let t = Typecheck.lval_ty ctx.fe lv in
    let width = scalar_width (comps ctx) loc t in
    let addr_c = compile_addr ctx lv in
    (* __tid / __nthreads model values the OpenMP runtime hands each
       thread in a register, so their loads are register-priced too *)
    let in_reg =
      match lv with
      | Ast.Var ("__tid" | "__nthreads") -> true
      | Ast.Var x -> Hashtbl.mem ctx.regs x
      | _ -> false
    in
    match (t, in_reg) with
    | Types.Tfloat _, true ->
      Flt
        (fun () ->
          let addr = addr_c () in
          do_load_reg st aid addr width;
          Memory.load_float st.mem addr width)
    | Types.Tfloat _, false ->
      Flt
        (fun () ->
          let addr = addr_c () in
          do_load st aid addr width;
          Memory.load_float st.mem addr width)
    | _, true ->
      Int
        (fun () ->
          let addr = addr_c () in
          do_load_reg st aid addr width;
          load_int st addr width)
    | _, false ->
      Int
        (fun () ->
          let addr = addr_c () in
          do_load st aid addr width;
          load_int st addr width))
  | Ast.Addr lv -> Int (compile_addr ctx lv)
  | Ast.Unop (op, a) -> compile_unop ctx op a
  | Ast.Binop (op, a, b) -> compile_binop ctx op a b e
  | Ast.Cast (t, a) ->
    let ta = Typecheck.exp_ty ctx.fe a in
    coerce loc ~src:ta ~dst:t (compile_exp ctx a)
  | Ast.SizeofType t ->
    let v = Types.sizeof (comps ctx) loc t in
    Int (fun () -> v)
  | Ast.SizeofExp _ -> Loc.error loc "sizeof(expr) survived normalization"
  | Ast.Call (f, _) ->
    Loc.error loc "expression-level call to '%s' survived normalization" f
  | Ast.Cond (c, a, b) -> (
    let t = Typecheck.exp_ty ctx.fe e in
    let cc = truthy_code (compile_exp ctx c) in
    let ca = coerce loc ~src:(Typecheck.exp_ty ctx.fe a) ~dst:t (compile_exp ctx a) in
    let cb = coerce loc ~src:(Typecheck.exp_ty ctx.fe b) ~dst:t (compile_exp ctx b) in
    let pick () =
      charge st Cost.branch;
      st.stats.n_branches <- st.stats.n_branches + 1;
      cc ()
    in
    match (ca, cb) with
    | Flt ca, Flt cb -> Flt (fun () -> if pick () then ca () else cb ())
    | ca, cb ->
      let ca = int_code ca and cb = int_code cb in
      Int (fun () -> if pick () then ca () else cb ()))

and compile_unop ctx op a : code =
  let st = ctx.m.st in
  let ca = compile_exp ctx a in
  let ta = Typecheck.exp_ty ctx.fe a in
  let arith1 () =
    charge st Cost.arith;
    st.stats.n_arith <- st.stats.n_arith + 1
  in
  match (op, ta) with
  | Ast.Neg, Types.Tfloat _ ->
    let ca = float_code ca in
    Flt
      (fun () ->
        charge st Cost.float_arith;
        st.stats.n_arith <- st.stats.n_arith + 1;
        -.ca ())
  | Ast.Neg, Types.Tint ik -> (
    let ca = int_code ca in
    match Types.promote_ikind ik with
    | Types.ILong ->
      Int
        (fun () ->
          arith1 ();
          lneg (ca ()))
    | ik ->
      Int
        (fun () ->
          arith1 ();
          trunc_ikind ik (-ca ())))
  | Ast.Lognot, _ ->
    let ca = truthy_code ca in
    Int
      (fun () ->
        arith1 ();
        if ca () then 0 else 1)
  | Ast.Bitnot, Types.Tint ik ->
    let ik = Types.promote_ikind ik in
    let ca = int_code ca in
    Int
      (fun () ->
        arith1 ();
        trunc_ikind ik (lnot (ca ())))
  | _, t ->
    Loc.error Loc.dummy "invalid unary operand type %s" (Types.show_ty t)

and compile_binop ctx op a b whole : code =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  let ta = Types.decay (Typecheck.exp_ty ctx.fe a) in
  let tb = Types.decay (Typecheck.exp_ty ctx.fe b) in
  let ca = compile_exp ctx a and cb = compile_exp ctx b in
  let elem_size t = Types.sizeof (comps ctx) loc (Types.pointee loc t) in
  let arith1 () =
    charge st Cost.arith;
    st.stats.n_arith <- st.stats.n_arith + 1
  in
  let branch1 () =
    charge st Cost.branch;
    st.stats.n_branches <- st.stats.n_branches + 1
  in
  match op with
  | Ast.Land ->
    let ca = truthy_code ca and cb = truthy_code cb in
    Int
      (fun () ->
        branch1 ();
        if ca () && cb () then 1 else 0)
  | Ast.Lor ->
    let ca = truthy_code ca and cb = truthy_code cb in
    Int
      (fun () ->
        branch1 ();
        if ca () || cb () then 1 else 0)
  | Ast.Add when Types.is_pointer ta ->
    let sz = elem_size ta and ca = int_code ca and cb = int_code cb in
    Int
      (fun () ->
        arith1 ();
        let i = cb () in
        ladd (ca ()) (lmul i sz))
  | Ast.Add when Types.is_pointer tb ->
    let sz = elem_size tb and ca = int_code ca and cb = int_code cb in
    Int
      (fun () ->
        arith1 ();
        let i = ca () in
        ladd (cb ()) (lmul i sz))
  | Ast.Sub when Types.is_pointer ta && Types.is_pointer tb ->
    let sz = elem_size ta and ca = int_code ca and cb = int_code cb in
    Int
      (fun () ->
        arith1 ();
        let q = cb () in
        lsub (ca ()) q / sz)
  | Ast.Sub when Types.is_pointer ta ->
    let sz = elem_size ta and ca = int_code ca and cb = int_code cb in
    Int
      (fun () ->
        arith1 ();
        let i = cb () in
        lsub (ca ()) (lmul i sz))
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne ->
    let test : int -> bool =
      match op with
      | Ast.Lt -> fun c -> c < 0
      | Ast.Gt -> fun c -> c > 0
      | Ast.Le -> fun c -> c <= 0
      | Ast.Ge -> fun c -> c >= 0
      | Ast.Eq -> fun c -> c = 0
      | Ast.Ne -> fun c -> c <> 0
      | _ -> assert false
    in
    if Types.is_float ta || Types.is_float tb then
      (* Float.compare, not IEEE comparison: NaN equals NaN and sorts
         below every other float *)
      let ca = float_code ca and cb = float_code cb in
      Int
        (fun () ->
          arith1 ();
          let y = cb () in
          if test (Float.compare (ca ()) y) then 1 else 0)
    else
      let ca = int_code ca and cb = int_code cb in
      Int
        (match op with
        | Ast.Lt ->
          fun () ->
            arith1 ();
            let y = cb () in
            if ca () < y then 1 else 0
        | Ast.Gt ->
          fun () ->
            arith1 ();
            let y = cb () in
            if ca () > y then 1 else 0
        | Ast.Le ->
          fun () ->
            arith1 ();
            let y = cb () in
            if ca () <= y then 1 else 0
        | Ast.Ge ->
          fun () ->
            arith1 ();
            let y = cb () in
            if ca () >= y then 1 else 0
        | Ast.Eq ->
          fun () ->
            arith1 ();
            let y = cb () in
            if ca () = y then 1 else 0
        | _ ->
          fun () ->
            arith1 ();
            let y = cb () in
            if ca () <> y then 1 else 0)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div
    when Types.is_float ta || Types.is_float tb ->
    let fk =
      match Typecheck.exp_ty ctx.fe whole with
      | Types.Tfloat fk -> fk
      | t -> Loc.error loc "float op with non-float type %s" (Types.show_ty t)
    in
    let cost = if op = Ast.Div then Cost.float_div else Cost.float_arith in
    let ca = float_code ca and cb = float_code cb in
    let arithf () =
      charge st cost;
      st.stats.n_arith <- st.stats.n_arith + 1
    in
    Flt
      (match op with
      | Ast.Add ->
        fun () ->
          arithf ();
          let y = cb () in
          round_float_kind fk (ca () +. y)
      | Ast.Sub ->
        fun () ->
          arithf ();
          let y = cb () in
          round_float_kind fk (ca () -. y)
      | Ast.Mul ->
        fun () ->
          arithf ();
          let y = cb () in
          round_float_kind fk (ca () *. y)
      | _ ->
        fun () ->
          arithf ();
          let y = cb () in
          round_float_kind fk (ca () /. y))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Shl | Ast.Shr
  | Ast.Band | Ast.Bor | Ast.Bxor ->
    let ik =
      match Typecheck.exp_ty ctx.fe whole with
      | Types.Tint ik -> ik
      | t -> Loc.error loc "integer op with non-int type %s" (Types.show_ty t)
    in
    let mask = (8 * Types.ikind_size ik) - 1 in
    let cost =
      match op with
      | Ast.Mul when const_pow2 a || const_pow2 b ->
        Cost.arith (* strength-reduced to a shift *)
      | Ast.Mul -> Cost.mul
      | Ast.Div | Ast.Mod -> Cost.div
      | _ -> Cost.arith
    in
    let ca = int_code ca and cb = int_code cb in
    let arithi () =
      charge st cost;
      st.stats.n_arith <- st.stats.n_arith + 1
    in
    let long = ik = Types.ILong in
    Int
      (match op with
      | Ast.Add when long ->
        fun () ->
          arithi ();
          let y = cb () in
          ladd (ca ()) y
      | Ast.Add ->
        fun () ->
          arithi ();
          let y = cb () in
          trunc_ikind ik (ca () + y)
      | Ast.Sub when long ->
        fun () ->
          arithi ();
          let y = cb () in
          lsub (ca ()) y
      | Ast.Sub ->
        fun () ->
          arithi ();
          let y = cb () in
          trunc_ikind ik (ca () - y)
      | Ast.Mul when long ->
        fun () ->
          arithi ();
          let y = cb () in
          lmul (ca ()) y
      | Ast.Mul ->
        fun () ->
          arithi ();
          let y = cb () in
          trunc_ikind ik (ca () * y)
      | Ast.Div ->
        fun () ->
          arithi ();
          let y = cb () in
          let x = ca () in
          if y = 0 then runtime_error "division by zero"
          else if y = -1 then if long then lneg x else trunc_ikind ik (-x)
          else trunc_ikind ik (x / y)
      | Ast.Mod ->
        fun () ->
          arithi ();
          let y = cb () in
          let x = ca () in
          if y = 0 then runtime_error "modulo by zero" else x mod y
      | Ast.Shl when long ->
        fun () ->
          arithi ();
          let y = cb () in
          lshl (ca ()) (y land mask)
      | Ast.Shl ->
        fun () ->
          arithi ();
          let y = cb () in
          trunc_ikind ik (ca () lsl (y land mask))
      | Ast.Shr ->
        fun () ->
          arithi ();
          let y = cb () in
          ca () asr (y land mask)
      | Ast.Band ->
        fun () ->
          arithi ();
          let y = cb () in
          ca () land y
      | Ast.Bor ->
        fun () ->
          arithi ();
          let y = cb () in
          ca () lor y
      | Ast.Bxor ->
        fun () ->
          arithi ();
          let y = cb () in
          ca () lxor y
      | _ -> assert false)

(** Compile the address computation of an lvalue. *)
and compile_addr (ctx : ctx) (lv : Ast.lval) : unit -> int =
  let st = ctx.m.st in
  let loc = Loc.dummy in
  match lv with
  | Ast.Var x -> (
    match Hashtbl.find_opt ctx.slots x with
    | Some off -> fun () -> st.frame + off
    | None ->
      let addr = global_addr st x in
      fun () -> addr)
  | Ast.Deref e ->
    let ce = int_code (compile_exp ctx e) in
    fun () ->
      let a = ce () in
      if a = 0 then runtime_error "null pointer dereference";
      a
  | Ast.Index (base, i) ->
    let elt =
      match Typecheck.lval_ty ctx.fe base with
      | Types.Tarray (elt, _) -> elt
      | t -> Loc.error loc "Index base is %s, not array" (Types.show_ty t)
    in
    let sz = Types.sizeof (comps ctx) loc elt in
    let cb = compile_addr ctx base in
    let ci = int_code (compile_exp ctx i) in
    (* scaled-index address generation folds into the access (AGU) *)
    fun () ->
      let i = ci () in
      cb () + (i * sz)
  | Ast.Field (base, f) ->
    let tag =
      match Typecheck.lval_ty ctx.fe base with
      | Types.Tstruct tag -> tag
      | t -> Loc.error loc "Field base is %s, not struct" (Types.show_ty t)
    in
    let off, _ = Types.field_offset (comps ctx) loc tag f in
    let cb = compile_addr ctx base in
    fun () -> cb () + off

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec compile_stmt (ctx : ctx) (s : Ast.stmt) : unit -> unit =
  let st = ctx.m.st in
  let loc = s.Ast.sloc in
  match s.Ast.skind with
  | Ast.Sskip -> fun () -> ()
  | Ast.Sassign (aid, lv, e) -> (
    let tlv = Typecheck.lval_ty ctx.fe lv in
    let width = scalar_width (comps ctx) loc tlv in
    let addr_c = compile_addr ctx lv in
    let ce =
      coerce loc ~src:(Typecheck.exp_ty ctx.fe e) ~dst:tlv (compile_exp ctx e)
    in
    let in_reg =
      match lv with Ast.Var x -> Hashtbl.mem ctx.regs x | _ -> false
    in
    (* the observer fires after the write so value-reading observers
       (the privatization-contract checker) see the stored value; the
       dependence profiler is positional and does not care *)
    match (tlv, in_reg) with
    | Types.Tfloat _, true ->
      let ce = float_code ce in
      fun () ->
        let v = ce () in
        let addr = addr_c () in
        Memory.store_float st.mem addr width v;
        do_store_reg st aid addr width
    | Types.Tfloat _, false ->
      let ce = float_code ce in
      fun () ->
        let v = ce () in
        let addr = addr_c () in
        Memory.store_float st.mem addr width v;
        do_store st aid addr width
    | (Types.Tint _ | Types.Tptr _), true ->
      let ce = int_code ce in
      fun () ->
        let v = ce () in
        let addr = addr_c () in
        Memory.store st.mem addr width v;
        do_store_reg st aid addr width
    | (Types.Tint _ | Types.Tptr _), false ->
      let ce = int_code ce in
      fun () ->
        let v = ce () in
        let addr = addr_c () in
        Memory.store st.mem addr width v;
        do_store st aid addr width
    | t, _ -> Loc.error loc "cannot store into type %s" (Types.show_ty t))
  | Ast.Scall (ret, f, args) -> compile_call ctx loc ret f args
  | Ast.Sseq stmts ->
    let cs = Array.of_list (List.map (compile_stmt ctx) stmts) in
    fun () -> Array.iter (fun c -> c ()) cs
  | Ast.Sif (c, a, b) ->
    let cc = truthy_code (compile_exp ctx c) in
    let ca = compile_stmt ctx a and cb = compile_stmt ctx b in
    fun () ->
      charge st Cost.branch;
      st.stats.n_branches <- st.stats.n_branches + 1;
      if cc () then ca () else cb ()
  | Ast.Swhile (lid, c, body) ->
    let cc = truthy_code (compile_exp ctx c) in
    let cbody = compile_stmt ctx body in
    compile_loop st lid cc cbody (fun () -> ())
  | Ast.Sfor (lid, init, c, step, body) ->
    let cinit = compile_stmt ctx init in
    let cc = truthy_code (compile_exp ctx c) in
    let cstep = compile_stmt ctx step in
    let cbody = compile_stmt ctx body in
    let loop = compile_loop st lid cc cbody cstep in
    fun () ->
      cinit ();
      loop ()
  | Ast.Sreturn None ->
    let res = ctx.result in
    fun () ->
      res.r_int <- 0;
      res.r_float <- 0.0;
      raise_notrace Return_exc
  | Ast.Sreturn (Some e) -> (
    let res = ctx.result in
    match
      coerce loc ~src:(Typecheck.exp_ty ctx.fe e) ~dst:ctx.fe.Typecheck.fn_ret
        (compile_exp ctx e)
    with
    | Int ce ->
      fun () ->
        res.r_int <- ce ();
        raise_notrace Return_exc
    | Flt ce ->
      fun () ->
        res.r_float <- ce ();
        raise_notrace Return_exc)
  | Ast.Sbreak -> fun () -> raise_notrace Break_exc
  | Ast.Scontinue -> fun () -> raise_notrace Continue_exc

(* The [Iter i] event fires BEFORE the condition of iteration [i] is
   evaluated, so that condition accesses are attributed to the
   iteration about to run (a condition read of a value written by the
   previous iteration is then correctly seen as loop-carried). A loop
   that exits via its condition thus reports one trailing [Iter] whose
   segment contains only the failing test. *)
and compile_loop st lid cc cbody cstep : unit -> unit =
  fun () ->
    (match st.loop_hook with Some h -> h lid Enter | None -> ());
    (try
       let iter = ref 0 in
       let continue_ = ref true in
       while !continue_ do
         (match st.loop_hook with Some h -> h lid (Iter !iter) | None -> ());
         burn_fuel st;
         charge st Cost.branch;
         st.stats.n_branches <- st.stats.n_branches + 1;
         if cc () then begin
           if st.iter_skip then st.iter_skip <- false
           else (try cbody () with Continue_exc -> ());
           cstep ();
           incr iter
         end
         else begin
           (* the trailing [Iter] probe may have requested a skip for a
              body that will never run; don't leak it past the loop *)
           st.iter_skip <- false;
           continue_ := false
         end
       done
     with Break_exc -> ());
    match st.loop_hook with Some h -> h lid Exit | None -> ()

(* A call's result store: [lv = f(...)] converts the result like an
   argument binding, without a cast. *)
and ret_store ctx loc ret : (int -> unit) * (float -> unit) =
  let st = ctx.m.st in
  match ret with
  | None -> ((fun _ -> ()), fun _ -> ())
  | Some (aid, lv) ->
    let tlv = Typecheck.lval_ty ctx.fe lv in
    let width = scalar_width (comps ctx) loc tlv in
    let addr_c = compile_addr ctx lv in
    let in_reg =
      match lv with Ast.Var x -> Hashtbl.mem ctx.regs x | _ -> false
    in
    let si = int_storer st loc tlv and sf = float_storer st loc tlv in
    if in_reg then
      ( (fun v ->
          let addr = addr_c () in
          si addr v;
          do_store_reg st aid addr width),
        fun v ->
          let addr = addr_c () in
          sf addr v;
          do_store_reg st aid addr width )
    else
      ( (fun v ->
          let addr = addr_c () in
          si addr v;
          do_store st aid addr width),
        fun v ->
          let addr = addr_c () in
          sf addr v;
          do_store st aid addr width )

and compile_call ctx loc ret f args : unit -> unit =
  let st = ctx.m.st in
  let cargs = Array.of_list (List.map (compile_exp ctx) args) in
  let store_int, store_float = ret_store ctx loc ret in
  match Ast.find_fun ctx.m.prog f with
  | Some fd ->
    let cf_ref =
      match Hashtbl.find_opt ctx.m.funs f with
      | Some r -> r
      | None -> Loc.error loc "function '%s' not compiled" f
    in
    let n = Array.length cargs in
    if List.length fd.Ast.fformals <> n then
      Loc.error loc "function '%s' expects %d argument(s), got %d" f
        (List.length fd.Ast.fformals) n;
    (* arguments are evaluated into this call site's slots before the
       callee's frame exists; a call cannot recur through its own
       arguments (calls are statements), so one set of slots suffices *)
    let iargs = Array.make n 0 and fargs = Array.make n 0.0 in
    let returns_float = is_float_ty fd.Ast.freturn in
    let res = ctx.result in
    fun () ->
      burn_fuel st;
      charge st Cost.call;
      st.stats.n_calls <- st.stats.n_calls + 1;
      let cf =
        match !cf_ref with
        | Some cf -> cf
        | None -> runtime_error "function '%s' not yet linked" f
      in
      for i = 0 to n - 1 do
        match cargs.(i) with
        | Int c -> iargs.(i) <- c ()
        | Flt c -> fargs.(i) <- c ()
      done;
      (* push a frame *)
      let base = (st.sp + 7) land lnot 7 in
      if base + cf.cf_frame_size > st.stack_limit then
        runtime_error "stack overflow calling '%s'" f;
      let old_sp = st.sp and old_frame = st.frame in
      st.sp <- base + cf.cf_frame_size;
      st.frame <- base;
      Memory.fill st.mem ~dst:base ~len:cf.cf_frame_size 0;
      for i = 0 to n - 1 do
        let fo = cf.cf_formals.(i) in
        let addr = base + fo.fo_off in
        (match cargs.(i) with
        | Int _ -> fo.fo_int addr iargs.(i)
        | Flt _ -> fo.fo_float addr fargs.(i));
        do_store st fo.fo_aid addr fo.fo_width
      done;
      let returned =
        try
          cf.cf_body ();
          false
        with Return_exc -> true
      in
      st.sp <- old_sp;
      st.frame <- old_frame;
      if returns_float then store_float (if returned then res.r_float else 0.0)
      else store_int (if returned then res.r_int else 0)
  | None -> (
    let ret_aid = Option.map fst ret in
    match compile_builtin ctx loc ?ret_aid f cargs with
    | Int bi ->
      fun () ->
        charge st Cost.call;
        st.stats.n_calls <- st.stats.n_calls + 1;
        store_int (bi ())
    | Flt bi ->
      fun () ->
        charge st Cost.call;
        st.stats.n_calls <- st.stats.n_calls + 1;
        store_float (bi ()))

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

(* A builtin's closure evaluates all of its arguments, left to right,
   before it acts or charges anything beyond the call itself. *)
and compile_builtin ctx loc ?ret_aid name (args : code array) : code =
  let st = ctx.m.st in
  let notify_alloc base size =
    match st.alloc_hook with Some h -> h ret_aid base size | None -> ()
  in
  let bad_arity msg =
    Int
      (fun () ->
        Array.iter
          (function Int c -> ignore (c ()) | Flt c -> ignore (c ()))
          args;
        runtime_error "%s" msg)
  in
  let arity = Printf.sprintf "bad arity for %s" name in
  let int1 f =
    match args with
    | [| a |] ->
      let a = int_code a in
      Int (fun () -> f (a ()))
    | _ -> bad_arity arity
  in
  let int2 f =
    match args with
    | [| a; b |] ->
      let a = int_code a and b = int_code b in
      Int
        (fun () ->
          let a = a () in
          f a (b ()))
    | _ -> bad_arity arity
  in
  let int3 f =
    match args with
    | [| a; b; c |] ->
      let a = int_code a and b = int_code b and c = int_code c in
      Int
        (fun () ->
          let a = a () in
          let b = b () in
          f a b (c ()))
    | _ -> bad_arity arity
  in
  let float1 f =
    match args with
    | [| a |] ->
      let a = float_code a in
      Flt
        (fun () ->
          let x = a () in
          charge st Cost.float_fn;
          f x)
    | _ -> bad_arity arity
  in
  match name with
  | "malloc" ->
    int1 (fun n ->
        charge st Cost.malloc;
        st.stats.n_allocs <- st.stats.n_allocs + 1;
        let base = Memory.alloc st.mem n in
        notify_alloc base n;
        base)
  | "calloc" ->
    int2 (fun a b ->
        charge st Cost.malloc;
        st.stats.n_allocs <- st.stats.n_allocs + 1;
        let n = a * b in
        let base = Memory.alloc st.mem n in
        notify_alloc base n;
        base)
  | "realloc" ->
    int2 (fun p n ->
        charge st (Cost.malloc + Cost.free);
        st.stats.n_allocs <- st.stats.n_allocs + 1;
        if p = 0 then begin
          let base = Memory.alloc st.mem n in
          notify_alloc base n;
          base
        end
        else begin
          let old = Memory.block_size st.mem p in
          let fresh = Memory.alloc st.mem n in
          Memory.blit st.mem ~src:p ~dst:fresh ~len:(min old n);
          (match st.bulk_hook with
          | Some h -> h fresh (Some p) (min old n)
          | None -> ());
          (match st.free_hook with Some h -> h p old | None -> ());
          Memory.free st.mem p;
          notify_alloc fresh n;
          fresh
        end)
  | "free" ->
    int1 (fun base ->
        charge st Cost.free;
        (if base <> 0 then
           match st.free_hook with
           | Some h -> h base (Memory.block_size st.mem base)
           | None -> ());
        Memory.free st.mem base;
        0)
  | "printf" ->
    if Array.length args = 0 then bad_arity "printf with no format"
    else
      let fmt = int_code args.(0) in
      let rest = Array.sub args 1 (Array.length args - 1) in
      let n = Array.length rest in
      let ints = Array.make n 0 and floats = Array.make n 0.0 in
      Int
        (fun () ->
          let fmt = fmt () in
          for i = 0 to n - 1 do
            match rest.(i) with
            | Int c -> ints.(i) <- c ()
            | Flt c -> floats.(i) <- c ()
          done;
          let s = format_printf st fmt rest ints floats in
          Buffer.add_string st.out s;
          charge st (Cost.io_char * String.length s);
          String.length s)
  | "putchar" ->
    int1 (fun c ->
        Buffer.add_char st.out (Char.chr (c land 0xff));
        charge st Cost.io_char;
        c)
  | "puts" ->
    int1 (fun p ->
        let s = Memory.read_cstring st.mem p in
        Buffer.add_string st.out s;
        Buffer.add_char st.out '\n';
        charge st (Cost.io_char * (String.length s + 1));
        0)
  | "memset" ->
    int3 (fun p c n ->
        Memory.fill st.mem ~dst:p ~len:n c;
        (match st.bulk_hook with Some h -> h p None n | None -> ());
        charge st (n / 8 * Cost.store);
        p)
  | "memcpy" ->
    int3 (fun d s n ->
        Memory.blit st.mem ~src:s ~dst:d ~len:n;
        (match st.bulk_hook with Some h -> h d (Some s) n | None -> ());
        charge st (n / 8 * (Cost.load + Cost.store));
        d)
  | "strlen" ->
    int1 (fun p ->
        let s = Memory.read_cstring st.mem p in
        charge st (String.length s * Cost.load);
        String.length s)
  | "abs" | "labs" -> int1 (fun v -> if v < 0 then lneg v else v)
  | "sqrt" -> float1 sqrt
  | "fabs" -> float1 Float.abs
  | "floor" -> float1 Float.floor
  | "exp" -> float1 Stdlib.exp
  | "log" -> float1 Stdlib.log
  | "rand" -> (
    match args with
    | [||] ->
      Int
        (fun () ->
          st.rand_state <-
            Int64.add
              (Int64.mul st.rand_state 6364136223846793005L)
              1442695040888963407L;
          Int64.to_int
            (Int64.logand
               (Int64.shift_right_logical st.rand_state 33)
               0x3FFFFFFFL))
    | _ -> bad_arity "bad arity for rand")
  | "srand" ->
    int1 (fun v ->
        st.rand_state <- Int64.add (Int64.of_int v) 0x9E3779B97F4A7C15L;
        0)
  | "exit" -> int1 (fun v -> raise (Exit_program v))
  | "assert" ->
    int1 (fun v ->
        if v = 0 then runtime_error "assertion failed at %s" (Loc.to_string loc);
        0)
  | _ -> Loc.error loc "unknown builtin '%s'" name

(** Minimal printf: supports %d %i %u %c %s %x %f %g %e %%, the 'l'
    length modifier, width, '0'/'-' flags and precision. The arguments
    after the format are [args], evaluated into [ints] / [floats] by
    kind. *)
and format_printf st fmt_addr (args : code array) (ints : int array)
    (floats : float array) : string =
  let fmt = Memory.read_cstring st.mem fmt_addr in
  let buf = Buffer.create (String.length fmt) in
  let next = ref 0 in
  let pop () =
    if !next >= Array.length args then
      runtime_error "printf: not enough arguments";
    incr next;
    !next - 1
  in
  let pop_int () =
    let i = pop () in
    match args.(i) with Int _ -> ints.(i) | Flt _ -> float_got floats.(i)
  in
  let pop_float () =
    let i = pop () in
    match args.(i) with Flt _ -> floats.(i) | Int _ -> Float.of_int ints.(i)
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c <> '%' then begin
      Buffer.add_char buf c;
      incr i
    end
    else begin
      incr i;
      (* flags *)
      let minus = ref false and zero = ref false in
      let rec flags () =
        if !i < n then
          match fmt.[!i] with
          | '-' ->
            minus := true;
            incr i;
            flags ()
          | '0' ->
            zero := true;
            incr i;
            flags ()
          | _ -> ()
      in
      flags ();
      let num () =
        let start = !i in
        while !i < n && fmt.[!i] >= '0' && fmt.[!i] <= '9' do incr i done;
        if !i > start then int_of_string (String.sub fmt start (!i - start))
        else 0
      in
      let width = num () in
      let prec = if !i < n && fmt.[!i] = '.' then (incr i; num ()) else -1 in
      while !i < n && (fmt.[!i] = 'l' || fmt.[!i] = 'h') do incr i done;
      if !i >= n then runtime_error "printf: truncated conversion";
      let conv = fmt.[!i] in
      incr i;
      let pad s =
        let len = String.length s in
        if len >= width then s
        else if !minus then s ^ String.make (width - len) ' '
        else if !zero && not !minus then
          (* keep sign before zeros *)
          if len > 0 && (s.[0] = '-' || s.[0] = '+') then
            String.make 1 s.[0]
            ^ String.make (width - len) '0'
            ^ String.sub s 1 (len - 1)
          else String.make (width - len) '0' ^ s
        else String.make (width - len) ' ' ^ s
      in
      let text =
        match conv with
        | '%' -> "%"
        | 'd' | 'i' | 'u' -> string_of_int (pop_int ())
        | 'x' -> Printf.sprintf "%Lx" (Int64.of_int (pop_int ()))
        | 'c' -> String.make 1 (Char.chr (pop_int () land 0xff))
        | 's' -> Memory.read_cstring st.mem (pop_int ())
        | 'f' -> Printf.sprintf "%.*f" (if prec >= 0 then prec else 6) (pop_float ())
        | 'e' -> Printf.sprintf "%.*e" (if prec >= 0 then prec else 6) (pop_float ())
        | 'g' -> Printf.sprintf "%.*g" (if prec >= 0 then prec else 6) (pop_float ())
        | c -> runtime_error "printf: unsupported conversion '%%%c'" c
      in
      Buffer.add_string buf (pad text)
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Program loading                                                     *)
(* ------------------------------------------------------------------ *)

let frame_layout comps (f : Ast.fundef) :
    int * (string * (int * Types.ty)) list =
  let loc = Loc.dummy in
  List.fold_left
    (fun (off, slots) (name, t) ->
      let al = Types.alignof comps loc t in
      let off = Types.roundup off al in
      (off + Types.sizeof comps loc t, (name, (off, t)) :: slots))
    (0, [])
    (f.Ast.fformals @ f.Ast.flocals)
  |> fun (size, slots) -> (Types.roundup size 8, List.rev slots)

let rec eval_init m ctx (t : Types.ty) addr (ini : Ast.init) : unit =
  let loc = Loc.dummy in
  let comps = m.prog.Ast.comps in
  match (t, ini) with
  | _, Ast.Iexp e when Types.is_scalar (Types.decay t) -> (
    match
      coerce loc ~src:(Typecheck.exp_ty ctx.fe e) ~dst:t (compile_exp ctx e)
    with
    | Int c -> int_storer m.st loc t addr (c ())
    | Flt c -> float_storer m.st loc t addr (c ()))
  | Types.Tarray (elt, n), Ast.Ilist items ->
    let sz = Types.sizeof comps loc elt in
    List.iteri
      (fun i item ->
        if i >= n then runtime_error "too many initializers";
        eval_init m ctx elt (addr + (i * sz)) item)
      items
  | Types.Tstruct tag, Ast.Ilist items ->
    let c = Types.find_composite comps loc tag in
    List.iteri
      (fun i item ->
        match List.nth_opt c.Types.cfields i with
        | None -> runtime_error "too many initializers for struct %s" tag
        | Some (fname, ft) ->
          let off, _ = Types.field_offset comps loc tag fname in
          eval_init m ctx ft (addr + off) item)
      items
  | _ -> runtime_error "invalid initializer shape"

(** Compile a program into a runnable machine. *)
let load (prog : Ast.program) : t =
  let st = make_state () in
  let m = { st; prog; funs = Hashtbl.create 16; inits = [] } in
  let result = { r_int = 0; r_float = 0.0 } in
  let env = Typecheck.make_env prog in
  (* Allocate all globals first so compiled code can reference them. *)
  List.iter
    (fun (name, t, _) ->
      let size = Types.sizeof prog.Ast.comps Loc.dummy t in
      Hashtbl.replace st.global_addrs name (Memory.alloc st.mem size))
    (Ast.global_vars prog);
  (* Pre-register function slots for mutual recursion. *)
  List.iter
    (fun (f : Ast.fundef) -> Hashtbl.replace m.funs f.Ast.fname (ref None))
    (Ast.functions prog);
  (* Compile each function. *)
  List.iter
    (fun (f : Ast.fundef) ->
      let fe = Typecheck.fenv_of env f in
      let frame_size, slot_list = frame_layout prog.Ast.comps f in
      let slots = Hashtbl.create 16 in
      List.iter (fun (n, (off, _)) -> Hashtbl.replace slots n off) slot_list;
      (* register-allocatable locals: scalar and never address-taken *)
      let regs = Hashtbl.create 16 in
      let addr_taken = Hashtbl.create 8 in
      let rec scan_at_exp (e : Ast.exp) =
        match e with
        | Ast.Addr lv -> scan_at_lval_addr lv
        | Ast.Lval (_, lv) -> scan_at_lval lv
        | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.SizeofExp a -> scan_at_exp a
        | Ast.Binop (_, a, b) ->
          scan_at_exp a;
          scan_at_exp b
        | Ast.Cond (a, b, c) ->
          scan_at_exp a;
          scan_at_exp b;
          scan_at_exp c
        | Ast.Call (_, args) -> List.iter scan_at_exp args
        | Ast.Const _ | Ast.SizeofType _ -> ()
      and scan_at_lval_addr lv =
        (match lv with
        | Ast.Var x -> Hashtbl.replace addr_taken x ()
        | _ -> ());
        scan_at_lval lv
      and scan_at_lval lv =
        match lv with
        | Ast.Var _ -> ()
        | Ast.Deref e -> scan_at_exp e
        | Ast.Index (b, i) ->
          scan_at_lval b;
          scan_at_exp i
        | Ast.Field (b, _) -> scan_at_lval b
      in
      ignore
        (Visit.map_stmt_exps
           ~fe:(fun e ->
             scan_at_exp e;
             e)
           ~flv:(fun lv ->
             scan_at_lval lv;
             lv)
           f.Ast.fbody);
      List.iter
        (fun (x, t) ->
          if Types.is_scalar (Types.decay t) && not (Hashtbl.mem addr_taken x)
          then
            match t with
            | Types.Tarray _ -> ()
            | _ -> Hashtbl.replace regs x ())
        (f.Ast.fformals @ f.Ast.flocals);
      let ctx = { m; fe; slots; regs; result } in
      let body = compile_stmt ctx f.Ast.fbody in
      let formals =
        List.map
          (fun (n, _) ->
            let off, t = List.assoc n slot_list in
            {
              fo_off = off;
              fo_width = scalar_width prog.Ast.comps Loc.dummy t;
              fo_aid = Ast.fresh_aid prog;
              fo_int = int_storer st Loc.dummy t;
              fo_float = float_storer st Loc.dummy t;
            })
          f.Ast.fformals
      in
      (Hashtbl.find m.funs f.Ast.fname) :=
        Some
          {
            cf_frame_size = frame_size;
            cf_formals = Array.of_list formals;
            cf_body = body;
            cf_ret = f.Ast.freturn;
            cf_result = result;
          })
    (Ast.functions prog);
  (* Global initializers run in declaration order in a pseudo-frame. *)
  let dummy_fun =
    {
      Ast.fname = "__global_init";
      freturn = Types.Tvoid;
      fformals = [];
      flocals = [];
      fbody = Ast.skip;
    }
  in
  let init_ctx =
    {
      m;
      fe = Typecheck.fenv_of env dummy_fun;
      slots = Hashtbl.create 1;
      regs = Hashtbl.create 1;
      result;
    }
  in
  m.inits <-
    List.filter_map
      (fun (name, t, ini) ->
        Option.map
          (fun ini ->
            let addr = Hashtbl.find st.global_addrs name in
            fun () -> eval_init m init_ctx t addr ini)
          ini)
      (Ast.global_vars prog);
  m

(** Run [main]; returns the exit code. *)
let run (m : t) : int =
  List.iter (fun f -> f ()) m.inits;
  match Hashtbl.find_opt m.funs "main" with
  | None | Some { contents = None } -> runtime_error "no main function"
  | Some { contents = Some cf } -> (
    if Array.length cf.cf_formals <> 0 then runtime_error "main must take no arguments";
    let base = (m.st.sp + 7) land lnot 7 in
    m.st.sp <- base + cf.cf_frame_size;
    m.st.frame <- base;
    try
      match cf.cf_body () with
      | () -> 0
      | exception Return_exc ->
        if is_float_ty cf.cf_ret then float_got cf.cf_result.r_float
        else cf.cf_result.r_int
    with Exit_program code -> code)

(** Convenience: load + run, returning (exit code, captured stdout). *)
let run_program (prog : Ast.program) : int * string =
  let m = load prog in
  let code = run m in
  (code, output m.st)
