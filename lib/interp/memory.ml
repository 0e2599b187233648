(** Byte-addressed flat memory for the MiniC interpreter.

    A single growable byte arena backs globals, the stack and the heap.
    Address 0 is the null pointer; the first [base_address] bytes are
    never handed out, so small integers cast to pointers fault. A
    size-bucketed free list recycles freed blocks, and live-byte peak
    tracking feeds the paper's Figure 14 (memory-use multiples). *)

type t = {
  mutable data : Bytes.t;
  mutable brk : int;  (** first unallocated byte *)
  blocks : (int, int) Hashtbl.t;  (** base address -> usable size *)
  free_lists : (int, int list ref) Hashtbl.t;  (** size bucket -> bases *)
  mutable live_bytes : int;
  mutable peak_bytes : int;
  mutable alloc_count : int;
  mutable fail_countdown : int option;
      (** fault injection: [Some n] makes the [n]-th subsequent tracked
          allocation raise {!Fault} (an out-of-memory model) *)
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

let base_address = 64

let create ?(initial = 1 lsl 16) () =
  {
    data = Bytes.make (max initial base_address) '\000';
    brk = base_address;
    blocks = Hashtbl.create 64;
    free_lists = Hashtbl.create 16;
    live_bytes = 0;
    peak_bytes = 0;
    alloc_count = 0;
    fail_countdown = None;
  }

let ensure m size =
  let cap = Bytes.length m.data in
  if m.brk + size > cap then begin
    let cap' = max (2 * cap) (m.brk + size) in
    let data' = Bytes.make cap' '\000' in
    Bytes.blit m.data 0 data' 0 m.brk;
    m.data <- data'
  end

(* Allocation is bucketed by rounded-up size so freed blocks of the
   same bucket are reused exactly; this keeps repeated malloc/free
   loops (dijkstra's queue nodes) at a flat memory profile. *)
let bucket_of size =
  let rec go b = if b >= size then b else go (2 * b) in
  go 16

let align8 n = (n + 7) land lnot 7

let alloc ?(track = true) m size : int =
  if size < 0 then fault "allocation of negative size %d" size;
  (if track then
     match m.fail_countdown with
     | Some n when n <= 1 ->
       m.fail_countdown <- None;
       fault "injected allocation failure (size %d)" size
     | Some n -> m.fail_countdown <- Some (n - 1)
     | None -> ());
  let size = max size 1 in
  let bucket = bucket_of size in
  let base =
    match Hashtbl.find_opt m.free_lists bucket with
    | Some ({ contents = base :: rest } as l) ->
      l := rest;
      (* freed blocks keep stale contents; fresh allocations are
         zeroed like calloc to keep runs deterministic *)
      Bytes.fill m.data base bucket '\000';
      base
    | _ ->
      ensure m (bucket + 8);
      let base = align8 m.brk in
      m.brk <- base + bucket;
      base
  in
  Hashtbl.replace m.blocks base size;
  if track then begin
    m.live_bytes <- m.live_bytes + bucket;
    m.alloc_count <- m.alloc_count + 1;
    if m.live_bytes > m.peak_bytes then m.peak_bytes <- m.live_bytes
  end;
  base

let block_size m base =
  match Hashtbl.find_opt m.blocks base with
  | Some s -> s
  | None -> fault "not the base of a live allocation: %d" base

let free m base =
  if base <> 0 then begin
    let size = block_size m base in
    let bucket = bucket_of size in
    Hashtbl.remove m.blocks base;
    m.live_bytes <- m.live_bytes - bucket;
    let l =
      match Hashtbl.find_opt m.free_lists bucket with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace m.free_lists bucket l;
        l
    in
    l := base :: !l
  end

let in_bounds m addr size = addr >= base_address && addr + size <= m.brk

let check m addr size =
  if not (in_bounds m addr size) then
    fault "out-of-bounds access: address %d, size %d (arena ends at %d)" addr
      size m.brk

(* Little-endian fixed-width accessors on native ints; loads
   sign-extend, matching MiniC's all-signed integer model. An 8-byte
   value that does not fit in OCaml's 63-bit [int] faults rather than
   load as a different number; stores keep the low [size] bytes. *)

let load m addr size : int =
  check m addr size;
  match size with
  | 1 -> Bytes.get_int8 m.data addr
  | 2 -> Bytes.get_int16_le m.data addr
  | 4 -> Int32.to_int (Bytes.get_int32_le m.data addr)
  | 8 ->
    let v = Bytes.get_int64_le m.data addr in
    let hi = Int64.to_int (Int64.shift_right v 62) in
    if hi = 0 || hi = -1 then Int64.to_int v
    else
      fault "8-byte value %Ld at address %d is outside the 63-bit int range"
        v addr
  | _ -> fault "unsupported load width %d" size

let store m addr size (v : int) : unit =
  check m addr size;
  match size with
  | 1 -> Bytes.set_uint8 m.data addr (v land 0xff)
  | 2 -> Bytes.set_uint16_le m.data addr (v land 0xffff)
  | 4 -> Bytes.set_int32_le m.data addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le m.data addr (Int64.of_int v)
  | _ -> fault "unsupported store width %d" size

let load_float m addr size : float =
  check m addr size;
  match size with
  | 4 -> Int32.float_of_bits (Bytes.get_int32_le m.data addr)
  | 8 -> Int64.float_of_bits (Bytes.get_int64_le m.data addr)
  | _ -> fault "unsupported float load width %d" size

let store_float m addr size (f : float) : unit =
  check m addr size;
  match size with
  | 4 -> Bytes.set_int32_le m.data addr (Int32.bits_of_float f)
  | 8 -> Bytes.set_int64_le m.data addr (Int64.bits_of_float f)
  | _ -> fault "unsupported float store width %d" size

(* Raw byte windows, used by the domain executor to capture store
   values into a write log and replay them on sibling machines. *)

let read_raw m addr len : string =
  check m addr len;
  Bytes.sub_string m.data addr len

let write_raw m addr (s : string) : unit =
  check m addr (String.length s);
  Bytes.blit_string s 0 m.data addr (String.length s)

let blit m ~src ~dst ~len =
  check m src len;
  check m dst len;
  Bytes.blit m.data src m.data dst len

let fill m ~dst ~len byte =
  check m dst len;
  Bytes.fill m.data dst len (Char.chr (byte land 0xff))

(** Store an OCaml string as a NUL-terminated C string. *)
let write_cstring m s : int =
  let base = alloc m (String.length s + 1) in
  Bytes.blit_string s 0 m.data base (String.length s);
  Bytes.set m.data (base + String.length s) '\000';
  base

let read_cstring m addr : string =
  check m addr 1;
  let rec find_end i =
    if i >= m.brk then fault "unterminated string at %d" addr
    else if Bytes.get m.data i = '\000' then i
    else find_end (i + 1)
  in
  let stop = find_end addr in
  Bytes.sub_string m.data addr (stop - addr)

let live_bytes m = m.live_bytes
let peak_bytes m = m.peak_bytes
let alloc_count m = m.alloc_count

let set_alloc_fault m n =
  if n <= 0 then invalid_arg "set_alloc_fault: n must be positive";
  m.fail_countdown <- Some n

let clear_alloc_fault m = m.fail_countdown <- None

let find_block m addr : (int * int) option =
  Hashtbl.fold
    (fun base size acc ->
      match acc with
      | Some _ -> acc
      | None -> if addr >= base && addr < base + size then Some (base, size) else None)
    m.blocks None
