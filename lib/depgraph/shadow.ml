(** Paged shadow memory: a growable directory of lazily allocated
    pages, each one flat [int array] holding its slots' planes side by
    side. *)

let page_bits = 12
let page_slots = 1 lsl page_bits
let slot_mask = page_slots - 1

type t = {
  granule_bits : int;
  page_shift : int;  (** [granule_bits + page_bits] *)
  planes : int;
  page_len : int;  (** [planes * page_slots] *)
  mutable dir : int array array;  (** page number -> page; [[||]] = absent *)
  mutable pages : int;
}

let absent : int array = [||]

let create ?(granule_bits = 0) ~planes () =
  if planes < 1 then invalid_arg "Shadow.create: planes < 1";
  {
    granule_bits;
    page_shift = granule_bits + page_bits;
    planes;
    page_len = planes * page_slots;
    dir = Array.make 64 absent;
    pages = 0;
  }

let index sh addr = ((addr lsr sh.granule_bits) land slot_mask) * sh.planes

let find_page sh addr =
  let pn = addr lsr sh.page_shift in
  if pn < Array.length sh.dir then Array.unsafe_get sh.dir pn else absent

let page sh addr =
  if addr < 0 then invalid_arg "Shadow.page: negative address";
  let pn = addr lsr sh.page_shift in
  if pn >= Array.length sh.dir then begin
    let d = Array.make (max (pn + 1) (2 * Array.length sh.dir)) absent in
    Array.blit sh.dir 0 d 0 (Array.length sh.dir);
    sh.dir <- d
  end;
  let p = Array.unsafe_get sh.dir pn in
  if p != absent then p
  else begin
    let p = Array.make sh.page_len 0 in
    sh.dir.(pn) <- p;
    sh.pages <- sh.pages + 1;
    p
  end

let clear sh addr len =
  if len > 0 then begin
    let s0 = addr lsr sh.granule_bits
    and s1 = (addr + len - 1) lsr sh.granule_bits in
    (* one page-sized run at a time *)
    let s = ref s0 in
    while !s <= s1 do
      let run_end = min s1 (!s lor slot_mask) in
      let p = find_page sh (!s lsl sh.granule_bits) in
      if p != absent then
        Array.fill p
          ((!s land slot_mask) * sh.planes)
          ((run_end - !s + 1) * sh.planes)
          0;
      s := run_end + 1
    done
  end

let pages sh = sh.pages
