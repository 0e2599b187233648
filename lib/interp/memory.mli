(** Byte-addressed flat memory for the MiniC interpreter.

    A single growable byte arena backs globals, the stack and the heap.
    Address 0 is the null pointer; the first {!base_address} bytes are
    never handed out, so small integers cast to pointers fault. A
    size-bucketed free list recycles freed blocks, and live-byte peak
    tracking feeds the paper's Figure 14 (memory-use multiples). *)

type t

(** Raised on out-of-bounds or otherwise invalid memory operations. *)
exception Fault of string

(** Lowest address ever handed out. *)
val base_address : int

val create : ?initial:int -> unit -> t

(** Allocate [size] usable bytes (zeroed); returns the base address.
    [track:false] excludes the block from live/peak accounting (used
    for the simulated call stack, which is machinery rather than
    program data). *)
val alloc : ?track:bool -> t -> int -> int

(** Usable size of a live allocation, given its base address. *)
val block_size : t -> int -> int

(** Free a block by base address; freeing address 0 is a no-op. *)
val free : t -> int -> unit

(** Whether [size] bytes at [addr] lie in the arena handed out so far,
    i.e. whether an access there would not raise {!Fault}. *)
val in_bounds : t -> int -> int -> bool

(** Little-endian loads/stores of 1/2/4/8 bytes on native ints;
    integer loads sign-extend (MiniC's all-signed model) and stores
    keep the low [size] bytes. An 8-byte load whose 64-bit value does
    not fit in a 63-bit [int] raises {!Fault}. *)
val load : t -> int -> int -> int

val store : t -> int -> int -> int -> unit
val load_float : t -> int -> int -> float
val store_float : t -> int -> int -> float -> unit
val blit : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> dst:int -> len:int -> int -> unit

(** Raw byte window of [len] bytes at [addr] (bounds-checked). The
    domain executor captures store values with this and replays them
    with {!write_raw} on sibling machines. *)
val read_raw : t -> int -> int -> string

val write_raw : t -> int -> string -> unit

(** Store an OCaml string as a NUL-terminated C string; returns its
    address. *)
val write_cstring : t -> string -> int

val read_cstring : t -> int -> string

(** Currently live tracked bytes (bucket-rounded). *)
val live_bytes : t -> int

(** High-water mark of {!live_bytes}. *)
val peak_bytes : t -> int

val alloc_count : t -> int

(** Fault injection: make the [n]-th subsequent tracked allocation
    raise {!Fault} ([n] >= 1), modelling allocation failure. The knob
    disarms itself after firing. *)
val set_alloc_fault : t -> int -> unit

val clear_alloc_fault : t -> unit

(** [(base, size)] of the live allocation containing [addr], if any. *)
val find_block : t -> int -> (int * int) option
