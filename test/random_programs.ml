(* Random parallel-loop programs: a few privatizable scratch structures
   (array / malloc'd buffer / struct), per-iteration init-then-use,
   accumulation into shared state. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* iters = int_range 5 25 in
  let* asize = int_range 3 17 in
  let* use_heap = bool in
  let* use_struct = bool in
  let* use_helper = bool in
  let* use_field_ptr = bool in
  let* coeff = int_range 1 9 in
  let* accumulate = bool in
  let scratch_decl, scratch_setup, scratch_free =
    if use_heap then
      ( "int *scratch;",
        Printf.sprintf
          "scratch = (int *)malloc(sizeof(int) * %d);" asize,
        "free(scratch);" )
    else (Printf.sprintf "int scratch[%d];" asize, "", "")
  in
  let struct_part =
    if use_struct then
      {|
    pair.lo = it * 2;
    pair.hi = pair.lo + 1;
    s += pair.hi - pair.lo;|}
    else ""
  in
  let helper_part =
    if use_helper then "s = mix(s, scratch, " ^ string_of_int asize ^ ");"
    else ""
  in
  let field_part =
    if use_field_ptr then
      {|
    slot.buf = scratch;
    slot.n = 3;
    s += slot.buf[slot.n - 1];|}
    else ""
  in
  let sink =
    if accumulate then "acc += s;" else "results[it % 16] = s; acc = acc + results[it % 16] % 7;"
  in
  return
    (Printf.sprintf
       {|
struct pr { int lo; int hi; };
struct ref { int *buf; int n; };
int results[16];
int acc;
int mix(int seed, int *data, int n)
{
  int k;
  int t = seed;
  for (k = 0; k < n; k++) t = (t * 31 + data[k]) %% 65521;
  return t;
}
int main(void)
{
  int it;
#pragma parallel
  for (it = 0; it < %d; it++) {
    %s
    struct pr pair;
    struct ref slot;
    int k;
    int s = 0;
    %s
    for (k = 0; k < %d; k++) scratch[k] = it * %d + k;
    for (k = 0; k < %d; k++) s += scratch[k];
    %s
    %s
    %s
    %s
    %s
  }
  printf("%%d %%d\n", acc, results[3]);
  return 0;
}|}
       iters scratch_decl scratch_setup asize coeff asize struct_part
       helper_part field_part sink scratch_free)
