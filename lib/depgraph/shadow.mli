(** Paged shadow memory.

    One int per shadow slot per {e plane}, where a slot covers
    [2^granule_bits] bytes of the interpreter's address space. Slots
    live in pages of {!page_slots} slots allocated zeroed on first
    touch, under a directory indexed by page number that grows on
    demand — a two-level page table over flat [int array]s. A slot's
    planes sit side by side: plane [p] of the slot at {!index} [i] is
    [page.(i + p)], so one access reads neighbouring ints of one
    array whatever the number of planes.

    Zero is every plane's "nothing recorded" value: clients encode
    their state so that a fresh page needs no initialisation, and
    invalidate whole generations of state by stamping slots with an
    epoch (a loop invocation) instead of sweeping them. *)

type t

(** Slots per page (4096). *)
val page_slots : int

(** [create ~planes ()] shadows every [2^granule_bits] bytes
    (default 0: byte granularity) with [planes] ints. *)
val create : ?granule_bits:int -> planes:int -> unit -> t

(** The page holding [addr]'s slot, allocated zeroed on first touch.
    @raise Invalid_argument on a negative address. *)
val page : t -> int -> int array

(** The page holding [addr]'s slot, or the empty array when that page
    was never touched. Never allocates. *)
val find_page : t -> int -> int array

(** Index of [addr]'s slot (its plane 0) within its page; the next
    slot starts [planes] further on. *)
val index : t -> int -> int

(** Zero every plane of the slots covering [addr, addr + len), across
    page boundaries; pages never touched are skipped. *)
val clear : t -> int -> int -> unit

(** Pages allocated so far. *)
val pages : t -> int
