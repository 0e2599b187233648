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

(* Expression-heavy straight-line programs for the interpreter's
   golden semantics table: every integer kind, float/double, int<->float
   casts (NaN and infinities included), float rounding, shifts by
   counts at or past the width, division and modulo of negatives
   (INT_MIN / -1 too), pointer difference, recast loads, calls that
   convert their arguments and results, and long values crossing
   +-2^31 and 2^32.

   Long expressions carry a bound on their magnitude in bits and are
   only combined while that bound stays under 2^61, so a generated
   program never leaves the interpreter's 63-bit long range: its
   result is the same 64-bit two's-complement value on any correct
   interpreter. *)
let gen_expr_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let ivars = [ "c0"; "c1"; "s0"; "s1"; "i0"; "i1"; "i2" ] in
  let lvars = [ "l0"; "l1" ] in
  let fvars = [ "f0"; "d0"; "d1" ] in
  let int_consts =
    [ "0"; "1"; "-1"; "7"; "255"; "-128"; "32767"; "-32768"; "65535";
      "2147483647"; "0x7fffffff"; "0x80000000"; "(-2147483647 - 1)";
      "1000000"; "46341"; "-3" ]
  in
  (* (literal, magnitude bound in bits) *)
  let long_consts =
    [ ("2147483648L", 32); ("-2147483649L", 32); ("4294967295L", 32);
      ("4294967296L", 33); ("-4294967296L", 33); ("8589934592L", 34);
      ("1099511627776L", 41); ("1L", 1); ("-1L", 1); ("0L", 1);
      ("2147483647L", 31) ]
  in
  let float_consts =
    [ "1.5"; "-0.1"; "0.1f"; "3.0e10"; "1e300"; "-2.5e-3"; "0.0";
      "16777217.0"; "2147483648.0"; "-1e19"; "0.333333333f" ]
  in
  let shift_counts = [ 0; 1; 5; 31; 32; 33; 40; 63; 64; 70 ] in
  let idx8 e = Printf.sprintf "(%s & 7)" e in
  let rec iexp d : string t =
    let leaf =
      oneof
        [
          oneofl ivars;
          oneofl int_consts;
          map (fun e -> Printf.sprintf "arr[%d]" e) (int_range 0 7);
          map (fun e -> Printf.sprintf "carr[%d]" e) (int_range 0 7);
          return "*p";
          return "(int)(p - q)";
          return "*((short *)p)";
          return "*((char *)q + 1)";
          map (fun v -> Printf.sprintf "(short)%s" v) (oneofl lvars);
          map (fun v -> Printf.sprintf "(int)%s" v) (oneofl lvars);
          map (fun v -> Printf.sprintf "(char)%s" v) (oneofl ivars);
          map (fun v -> Printf.sprintf "(int)%s" v) (oneofl fvars);
          map (fun v -> Printf.sprintf "(short)%s" v) (oneofl fvars);
          return "(int)sizeof(long)";
        ]
    in
    if d <= 0 then leaf
    else
      let sub = iexp (d - 1) in
      frequency
        [
          (3, leaf);
          ( 6,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
              sub sub );
          ( 2,
            map3
              (fun op a b -> Printf.sprintf "(%s %s (%s | 1))" a op b)
              (oneofl [ "/"; "%" ]) sub sub );
          ( 1,
            map3
              (fun op a k -> Printf.sprintf "(%s %s %s)" a op k)
              (oneofl [ "/"; "%" ]) sub
              (oneofl [ "-1"; "2"; "-3"; "7" ]) );
          ( 2,
            map3
              (fun op a k -> Printf.sprintf "(%s %s %d)" a op k)
              (oneofl [ "<<"; ">>" ]) sub (oneofl shift_counts) );
          ( 1,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "<<"; ">>" ]) sub sub );
          ( 2,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
              (oneof [ sub; map fst (lexp (d - 1)); fexp (d - 1) ])
              (oneof [ sub; map fst (lexp (d - 1)); fexp (d - 1) ]) );
          ( 1,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "&&"; "||" ]) sub sub );
          ( 2,
            map2 (fun op a -> Printf.sprintf "(%s %s)" op a)
              (oneofl [ "-"; "~"; "!" ]) sub );
          ( 1,
            map3 (fun c a b -> Printf.sprintf "(%s ? %s : %s)" c a b) sub sub
              sub );
          (1, map (fun l -> Printf.sprintf "(int)%s" (fst l)) (lexp (d - 1)));
          (1, map (fun f -> Printf.sprintf "(int)%s" f) (fexp (d - 1)));
          (1, map (fun f -> Printf.sprintf "(char)%s" f) (fexp (d - 1)));
        ]
  (* a long expression and a bound on its magnitude in bits *)
  and lexp d : (string * int) t =
    let leaf =
      oneof
        [
          map (fun v -> (v, 45)) (oneofl lvars);
          map (fun i -> (Printf.sprintf "larr[%d]" i, 46)) (int_range 0 3);
          oneofl long_consts;
          map (fun e -> (Printf.sprintf "(long)%s" e, 31)) (iexp 0);
          return ("(p - q)", 4);
          return ("(long)(d0 - d0)", 1);
          return ("(long)(d1 * 0.0)", 1);
        ]
    in
    if d <= 0 then leaf
    else
      let sub = lexp (d - 1) in
      let fits (s, b) = if b <= 60 then return (s, b) else leaf in
      frequency
        [
          (3, leaf);
          ( 4,
            sub >>= fun (a, ba) ->
            sub >>= fun (b, bb) ->
            oneofl [ "+"; "-" ] >>= fun op ->
            fits (Printf.sprintf "(%s %s %s)" a op b, max ba bb + 1) );
          ( 2,
            iexp (d - 1) >>= fun i ->
            sub >>= fun (a, ba) ->
            fits (Printf.sprintf "(%s + %s)" a i, max ba 31 + 1) );
          ( 3,
            sub >>= fun (a, ba) ->
            sub >>= fun (b, bb) -> fits (Printf.sprintf "(%s * %s)" a b, ba + bb) );
          ( 2,
            sub >>= fun (a, ba) ->
            sub >>= fun (b, _) ->
            oneofl [ "/"; "%" ] >>= fun op ->
            return (Printf.sprintf "(%s %s (%s | 1L))" a op b, ba) );
          ( 1,
            sub >>= fun (a, ba) ->
            oneofl [ "/ -1L"; "% -1L"; "/ 3L"; "% -7L" ] >>= fun k ->
            return (Printf.sprintf "(%s %s)" a k, ba) );
          ( 2,
            sub >>= fun (a, ba) ->
            oneofl shift_counts >>= fun k ->
            fits (Printf.sprintf "(%s << %d)" a k, ba + (k land 63)) );
          ( 1,
            sub >>= fun (a, ba) ->
            iexp (d - 1) >>= fun k ->
            return (Printf.sprintf "(%s >> %s)" a k, ba) );
          ( 2,
            sub >>= fun (a, ba) ->
            sub >>= fun (b, bb) ->
            oneofl [ "&"; "|"; "^" ] >>= fun op ->
            fits (Printf.sprintf "(%s %s %s)" a op b, max ba bb + 1) );
          ( 1,
            sub >>= fun (a, ba) ->
            oneofl [ "-"; "~" ] >>= fun op ->
            return (Printf.sprintf "(%s %s)" op a, ba + 1) );
          ( 1,
            iexp (d - 1) >>= fun c ->
            sub >>= fun (a, ba) ->
            sub >>= fun (b, bb) ->
            return (Printf.sprintf "(%s ? %s : %s)" c a b, max ba bb) );
        ]
  and fexp d : string t =
    let leaf =
      oneof
        [
          oneofl fvars;
          oneofl float_consts;
          map (fun e -> Printf.sprintf "(double)%s" e) (iexp 0);
          map (fun v -> Printf.sprintf "(float)%s" v) (oneofl lvars);
          return "(0.0 / 0.0)";
          return "(1.0 / 0.0)";
        ]
    in
    if d <= 0 then leaf
    else
      let sub = fexp (d - 1) in
      frequency
        [
          (3, leaf);
          ( 5,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*"; "/" ])
              sub sub );
          ( 2,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "*" ])
              sub (iexp (d - 1)) );
          (1, map (fun a -> Printf.sprintf "(float)%s" a) sub);
          (1, map (fun a -> Printf.sprintf "(- %s)" a) sub);
          ( 1,
            map3 (fun c a b -> Printf.sprintf "(%s ? %s : %s)" c a b)
              (iexp (d - 1)) sub sub );
        ]
  in
  let stmt : string t =
    frequency
      [
        (4, map2 (Printf.sprintf "%s = %s;") (oneofl ivars) (iexp 3));
        ( 1,
          map2 (fun v (l, _) -> Printf.sprintf "%s = %s;" v l) (oneofl ivars)
            (lexp 2) );
        (1, map2 (Printf.sprintf "%s = %s;") (oneofl ivars) (fexp 2));
        ( 3,
          map2
            (fun v (l, _) -> Printf.sprintf "%s = %s %% 35184372088832L;" v l)
            (oneofl lvars) (lexp 3) );
        ( 1,
          map3
            (fun i (l, _) k ->
              Printf.sprintf "larr[%d] = (%s) %% 35184372088832L + %s;" i l k)
            (int_range 0 3) (lexp 2)
            (oneofl [ "0L"; "2147483648L"; "-4294967296L" ]) );
        (3, map2 (Printf.sprintf "%s = %s;") (oneofl fvars) (fexp 3));
        (1, map2 (Printf.sprintf "%s = %s;") (oneofl fvars) (iexp 2));
        ( 2,
          map2 (fun i e -> Printf.sprintf "arr[%s] = %s;" (idx8 i) e) (iexp 1)
            (iexp 2) );
        ( 1,
          map2 (fun i e -> Printf.sprintf "carr[%d] = %s;" i e) (int_range 0 7)
            (iexp 2) );
        ( 1,
          map2
            (fun a b ->
              Printf.sprintf "p = &arr[%s]; q = &arr[0] + %s;" (idx8 a) (idx8 b))
            (iexp 1) (iexp 1) );
        ( 1,
          map3
            (fun v a (l, _) ->
              Printf.sprintf "%s = mixi(%s, %s, %s);" v a l "d1")
            (oneofl ivars) (fexp 1) (lexp 1) );
        ( 1,
          map3
            (fun v a b -> Printf.sprintf "%s = mixd(%s, %s);" v a b)
            (oneofl (ivars @ fvars))
            (fexp 1) (fexp 1) );
        ( 1,
          map3
            (fun v (l, _) b -> Printf.sprintf "%s = mixl(%s, %s);" v l b)
            (oneofl (ivars @ lvars))
            (lexp 1) (iexp 1) );
        ( 1,
          map2 (fun v f -> Printf.sprintf "%s = sqrt(fabs(%s));" v f)
            (oneofl (ivars @ fvars))
            (fexp 1) );
        ( 1,
          map2
            (fun e f -> Printf.sprintf "printf(\"%%d %%x %%.9g\\n\", %s, %s, %s);" e e f)
            (iexp 2) (fexp 1) );
      ]
  in
  let* iters = int_range 2 10 in
  let* body = list_size (int_range 6 14) stmt in
  let* inits = list_repeat 3 (iexp 1) in
  return
    (Printf.sprintf
       {|
char c0; char c1; short s0; short s1; int i0; int i1; int i2;
long l0; long l1; float f0; double d0; double d1;
int arr[8]; long larr[4]; char carr[8]; int chk;
int mixi(int a, long b, double x) { return a * 3 + (int)(b %% 1000L) + (int)x; }
double mixd(float x, double y) { return x * 0.5 + y; }
long mixl(long a, int b) { if (b == 0) return a; return a %% 1000003L + b; }
int main(void)
{
  int it;
  int k;
  int *p;
  int *q;
  for (k = 0; k < 8; k++) { arr[k] = k * 2654435761; carr[k] = k * 37; }
  p = &arr[1];
  q = &arr[5];
  c0 = 100; c1 = -7; s0 = 30000; s1 = -2; i0 = 123456789; i1 = -42; i2 = 9;
  l0 = 4294967295L; l1 = -2147483649L; f0 = 0.1f; d0 = 2.5; d1 = -1e10;
  i0 = %s; i1 = %s; i2 = %s;
  for (it = 0; it < %d; it++) {
    %s
    chk = chk * 31 + c0 + s1 + i0 + i1 + i2 + (int)l0 + (int)(l1 >> 32) + arr[it & 7];
  }
  printf("%%d %%d %%d %%d %%d %%d %%d\n", c0, c1, s0, s1, i0, i1, i2);
  printf("%%ld %%ld %%x %%x\n", l0, l1, l0, i0);
  printf("%%.9g %%.17g %%.17g\n", f0, d0, d1);
  for (k = 0; k < 8; k++) printf("%%d %%d ", arr[k], carr[k]);
  for (k = 0; k < 4; k++) printf("%%ld ", larr[k]);
  printf("%%d\n", chk);
  return chk & 63;
}|}
       (List.nth inits 0) (List.nth inits 1) (List.nth inits 2) iters
       (String.concat "\n    " body))
