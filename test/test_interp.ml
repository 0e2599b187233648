(* Interpreter tests: semantics of the MiniC abstract machine. *)

open Minic

let run src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  Interp.Machine.run_program p

let check_output name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let code, out = run src in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.(check string) "output" expected out)

let check_exit name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let code, _ = run src in
      Alcotest.(check int) "exit code" expected code)

let semantics_tests =
  [
    check_exit "return value" "int main(void){ return 42; }" 42;
    check_exit "arith" "int main(void){ return 2 + 3 * 4 - 24 / 4 % 4; }" 12;
    check_output "printf int" {|int main(void){ printf("%d\n", 7 * 6); return 0; }|} "42\n";
    check_output "printf width"
      {|int main(void){ printf("[%5d][%-5d][%05d]\n", 42, 42, 42); return 0; }|}
      "[   42][42   ][00042]\n";
    check_output "printf float"
      {|int main(void){ printf("%.2f %.3e\n", 3.14159, 1234.5); return 0; }|}
      "3.14 1.234e+03\n";
    check_output "printf string char"
      {|int main(void){ printf("%s|%c\n", "hey", 'z'); return 0; }|} "hey|z\n";
    check_exit "int32 wraparound"
      "int main(void){ int x = 2147483647; x = x + 1; return x == -2147483647 - 1; }"
      1;
    check_exit "long no wrap"
      "int main(void){ long x = 2147483647L; x = x + 1; return x > 0; }" 1;
    check_exit "char truncation"
      "int main(void){ char c = 300; return c; }" 44;
    check_exit "short sign extension"
      "int main(void){ short s = -2; int x = s; return x == -2; }" 1;
    check_exit "division" "int main(void){ return -7 / 2 + 10; }" 7;
    check_exit "modulo" "int main(void){ return -7 % 3 + 10; }" 9;
    check_exit "shifts" "int main(void){ int x = 1 << 10; return x >> 4; }" 64;
    check_exit "bitops" "int main(void){ return (12 & 10) | (1 ^ 3); }" 10;
    check_exit "comparisons"
      "int main(void){ return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }"
      4;
    check_exit "short circuit and"
      "int main(void){ int *p = 0; if (p != 0 && *p == 1) return 1; return 2; }" 2;
    check_exit "short circuit or"
      "int main(void){ int x = 1; if (x == 1 || 1 / 0) return 5; return 0; }" 5;
    check_exit "ternary" "int main(void){ int a = 3; return a > 2 ? 10 : 20; }" 10;
    check_exit "float to int trunc"
      "int main(void){ double d = 3.99; return (int)d; }" 3;
    check_exit "int to float"
      "int main(void){ int i = 7; double d = i; return (int)(d / 2.0 * 2.0); }" 7;
    check_exit "float32 rounding"
      "int main(void){ float f = 0.1f; double d = f; return d != 0.1; }" 1;
    check_exit "negative float"
      "int main(void){ double d = -2.5; return (int)fabs(d * 2.0); }" 5;
    check_exit "sqrt" "int main(void){ return (int)sqrt(144.0); }" 12;
  ]

let pointer_tests =
  [
    check_exit "address of local"
      "int main(void){ int x = 1; int *p = &x; *p = 9; return x; }" 9;
    check_exit "pointer arithmetic"
      "int main(void){ int a[5]; int *p = a; int i; for(i=0;i<5;i++) a[i]=i*i; p = p + 3; return *p; }"
      9;
    check_exit "pointer difference"
      "int main(void){ int a[10]; int *p = &a[7]; int *q = &a[2]; return (int)(p - q); }"
      5;
    check_exit "pointer indexing"
      "int main(void){ int *p = (int *)malloc(sizeof(int) * 4); p[2] = 7; int r = p[2]; free(p); return r; }"
      7;
    check_exit "double pointer"
      "int main(void){ int x = 3; int *p = &x; int **pp = &p; **pp = 8; return x; }"
      8;
    check_exit "struct fields"
      "struct pt { int x; int y; }; int main(void){ struct pt p; p.x = 3; p.y = 4; return p.x * p.x + p.y * p.y; }"
      25;
    check_exit "struct pointer arrow"
      "struct pt { int x; int y; }; int main(void){ struct pt p; struct pt *q = &p; q->x = 5; return p.x; }"
      5;
    check_exit "linked list"
      {|
struct node { int v; struct node *next; };
int main(void) {
  struct node *head = 0;
  int i;
  for (i = 0; i < 5; i++) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->v = i;
    n->next = head;
    head = n;
  }
  int s = 0;
  while (head != 0) { s = s * 10 + head->v; struct node *d = head; head = head->next; free(d); }
  return s;
}|}
      43210;
    check_exit "array of structs"
      "struct s { char tag; int v; }; int main(void){ struct s a[3]; int i; for(i=0;i<3;i++){ a[i].tag = 65 + i; a[i].v = i * 100; } return a[2].v + a[1].tag; }"
      266;
    check_exit "2d array"
      "int main(void){ int m[3][4]; int i; int j; for(i=0;i<3;i++) for(j=0;j<4;j++) m[i][j] = i * 10 + j; return m[2][3]; }"
      23;
    check_exit "global array init"
      "int tab[4] = {1, 2, 3, 4}; int main(void){ return tab[0] + tab[3] * 10; }" 41;
    check_exit "global struct init"
      "struct c { int a; int b; }; struct c g = {7, 9}; int main(void){ return g.a * g.b; }"
      63;
    check_exit "recast short int"
      (* bzip2's zptr idiom: write ints, read shorts (little-endian) *)
      "int main(void){ int *zptr = (int *)malloc(16); zptr[0] = 0x00030002; short *s = (short *)zptr; int r = s[0] * 10 + s[1]; free(zptr); return r; }"
      23;
    check_exit "memset memcpy"
      "int main(void){ char a[8]; char b[8]; memset(a, 7, 8L); memcpy(b, a, 8L); return b[0] + b[7]; }"
      14;
    check_exit "realloc preserves"
      "int main(void){ int *p = (int *)malloc(8); p[0] = 11; p[1] = 22; p = (int *)realloc(p, 64); return p[0] + p[1]; }"
      33;
    check_exit "calloc zeroes"
      "int main(void){ int *p = (int *)calloc(4L, 4L); return p[0] + p[3]; }" 0;
    check_exit "malloc reuse after free"
      {|int main(void){
         int i; int leak = 0;
         for (i = 0; i < 1000; i++) {
           int *p = (int *)malloc(64);
           p[0] = i;
           free(p);
         }
         return leak;
       }|}
      0;
    check_exit "string functions"
      {|int main(void){ return (int)strlen("hello"); }|} 5;
    check_exit "void pointer roundtrip"
      "int main(void){ int x = 5; void *v = &x; int *p = (int *)v; return *p; }" 5;
  ]

let control_tests =
  [
    check_exit "recursion fib"
      "int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void){ return fib(12); }"
      144;
    check_exit "mutual recursion"
      "int odd(int n); int even(int n){ if (n == 0) return 1; return odd(n-1); } int odd(int n){ if (n == 0) return 0; return even(n-1); } int main(void){ return even(10) * 10 + odd(10); }"
      10;
    check_exit "break" "int main(void){ int i; int s = 0; for(i=0;i<100;i++){ if (i == 5) break; s += i; } return s; }" 10;
    check_exit "continue"
      "int main(void){ int i; int s = 0; for(i=0;i<10;i++){ if (i % 2 == 0) continue; s += i; } return s; }"
      25;
    check_exit "while with break"
      "int main(void){ int n = 0; while (1) { n++; if (n >= 7) break; } return n; }" 7;
    check_exit "nested loops"
      "int main(void){ int i; int j; int c = 0; for(i=0;i<4;i++) for(j=0;j<=i;j++) c++; return c; }"
      10;
    check_exit "early return in loop"
      "int find(int *a, int n, int x){ int i; for(i=0;i<n;i++) if (a[i] == x) return i; return -1; } int main(void){ int a[5] = {0, 0, 0, 0, 0}; int i; for(i=0;i<5;i++) a[i] = i * 3; return find(a, 5, 9); }"
      3;
    check_exit "globals across calls"
      "int counter; void tick(void){ counter++; } int main(void){ int i; for(i=0;i<9;i++) tick(); return counter; }"
      9;
    check_exit "exit builtin" "int main(void){ exit(3); return 0; }" 3;
    check_exit "pass by value"
      "void bump(int x){ x = x + 1; } int main(void){ int x = 5; bump(x); return x; }" 5;
    check_exit "pass pointer"
      "void bump(int *x){ *x = *x + 1; } int main(void){ int x = 5; bump(&x); return x; }" 6;
    check_exit "rand deterministic"
      "int main(void){ srand(42); int a = rand(); srand(42); int b = rand(); return a == b; }"
      1;
  ]

let failure_tests =
  let expect_error name src =
    Alcotest.test_case name `Quick (fun () ->
        let p = Typecheck.parse_and_check ~file:name src in
        match Interp.Machine.run_program p with
        | exception Interp.Machine.Runtime_error _ -> ()
        | exception Interp.Memory.Fault _ -> ()
        | code, _ -> Alcotest.failf "expected a runtime error, got exit %d" code)
  in
  [
    expect_error "null deref" "int main(void){ int *p = 0; return *p; }";
    expect_error "division by zero" "int main(void){ int z = 0; return 1 / z; }";
    expect_error "modulo by zero" "int main(void){ int z = 0; return 1 % z; }";
    expect_error "assert failure" "int main(void){ assert(1 == 2); return 0; }";
    expect_error "wild pointer" "int main(void){ int *p = (int *)7; return *p; }";
    Alcotest.test_case "infinite loop fuel" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int x = 0; while (1) { x++; if (x == -1) break; } return 0; }"
        in
        let m = Interp.Machine.load p in
        m.Interp.Machine.st.Interp.Machine.fuel <- 100_000;
        match Interp.Machine.run m with
        | exception Interp.Machine.Runtime_error _ -> ()
        | code -> Alcotest.failf "expected fuel exhaustion, got exit %d" code);
    expect_error "stack overflow"
      "int deep(int n){ int pad[512]; pad[0] = n; return deep(n + 1) + pad[0]; } int main(void){ return deep(0); }";
  ]

(* [long] is exact or the machine raises: a value whose 64-bit
   two's-complement form does not fit in OCaml's 63-bit int never comes
   back as a different number, and 64-bit wraparound that lands back in
   range stays exact. *)
let long_range_tests =
  let expect_runtime_error name src =
    Alcotest.test_case name `Quick (fun () ->
        match run src with
        | exception Interp.Machine.Runtime_error _ -> ()
        | code, out ->
          Alcotest.failf "expected Runtime_error, got exit %d, output %S" code
            out)
  in
  [
    expect_runtime_error "literal 2^62"
      "int main(void){ long x = 4611686018427387904L; return x > 0; }";
    expect_runtime_error "multiply overflow"
      "int main(void){ long a = 2147483648L; long b = a * a; return b > 0; }";
    expect_runtime_error "multiply past 2^63"
      "int main(void){ long a = 3037000500L; long b = a * a; return b < 0; }";
    expect_runtime_error "8-byte load of a recast double 2.0"
      "int main(void){ double d = 2.0; long *p = (long *)&d; long x = *p; \
       return x != 0; }";
    expect_runtime_error "pointer load of a recast double"
      "int main(void){ double d = 2.0; char **p = (char **)&d; char *q = *p; \
       return q != 0; }";
    expect_runtime_error "add overflow"
      "int main(void){ long m = 4611686018427387903L; m = m + 1L; return 0; }";
    expect_runtime_error "subtract overflow"
      "int main(void){ long m = -4611686018427387904L; m = m - 1L; return 0; }";
    expect_runtime_error "negate the minimum"
      "int main(void){ long m = -4611686018427387904L; m = -m; return 0; }";
    expect_runtime_error "minimum divided by -1"
      "int main(void){ long m = -4611686018427387904L; long d = -1L; m = m / d; \
       return 0; }";
    expect_runtime_error "shift left out of range"
      "int main(void){ long a = 1L; int k = 62; a = a << k; return 0; }";
    expect_runtime_error "float to long out of range"
      "int main(void){ double d = 1e19; long x = (long)d; return x > 0; }";
    check_output "wraparound back into range is exact"
      {|int main(void){
          long a = 4294967297L; long b = a * a;
          long c = 4L; int k = 62; c = c << k;
          long d = 3L; d = d << k;
          long m = -4611686018427387904L;
          long n = 4611686018427387903L;
          printf("%ld %ld %ld %ld %ld %ld\n", b, c, d, m, n, m + n);
          return 0; }|}
      "8589934593 0 -4611686018427387904 -4611686018427387904 \
       4611686018427387903 -1\n";
    check_output "longs across 2^31 and 2^32"
      {|int main(void){
          long a = 2147483647L; long b = a + 1L; long c = -a - 2L;
          long d = 4294967295L; long e = d + 1L; long f = e * 65536L;
          printf("%ld %ld %ld %ld %x %ld\n", b, c, e, f, b, (long)(int)b);
          return 0; }|}
      "2147483648 -2147483649 4294967296 281474976710656 80000000 -2147483648\n";
    check_output "8-byte values round-trip through memory"
      {|int main(void){
          long v[2]; long *p = v; char *q = (char *)v;
          v[0] = -4611686018427387904L; v[1] = 4611686018427387903L;
          printf("%ld %ld %d %d\n", *p, *(p + 1), q[7], q[15]);
          return 0; }|}
      "-4611686018427387904 4611686018427387903 -64 63\n";
  ]

(* Integer values are unboxed: a hook-free run of a workload allocates
   (almost) nothing on the minor heap per simulated cycle. The count is
   deterministic: one domain, no hooks, the same program. *)
let allocation_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " minor words per cycle") `Quick (fun () ->
          let w = Workloads.Registry.find name in
          let p = Typecheck.parse_and_check ~file:name w.Workloads.Workload.source in
          let m = Interp.Machine.load p in
          let w0 = Gc.minor_words () in
          ignore (Interp.Machine.run m);
          let words = Gc.minor_words () -. w0 in
          let cycles = m.Interp.Machine.st.Interp.Machine.cycles in
          let per_cycle = words /. float_of_int cycles in
          if per_cycle > 0.1 then
            Alcotest.failf "%s: %.0f minor words over %d cycles = %.3f per cycle \
                            (bound 0.1)"
              name words cycles per_cycle))
    [ "md5"; "256.bzip2" ]

(* Cost accounting sanity: cycles and stats move as expected. *)
let accounting_tests =
  [
    Alcotest.test_case "cycles monotone with work" `Quick (fun () ->
        let cycles src =
          let p = Typecheck.parse_and_check src in
          let m = Interp.Machine.load p in
          ignore (Interp.Machine.run m);
          m.Interp.Machine.st.Interp.Machine.cycles
        in
        let small = cycles "int main(void){ int i; int s=0; for(i=0;i<10;i++) s+=i; return 0; }" in
        let big = cycles "int main(void){ int i; int s=0; for(i=0;i<1000;i++) s+=i; return 0; }" in
        Alcotest.(check bool) "more iterations cost more" true (big > 50 * small / 10));
    Alcotest.test_case "stats counters" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int a[100]; int i; for(i=0;i<100;i++) a[i] = i; return 0; }"
        in
        let m = Interp.Machine.load p in
        ignore (Interp.Machine.run m);
        let stats = m.Interp.Machine.st.Interp.Machine.stats in
        Alcotest.(check bool) "at least 100 stores" true (stats.Interp.Machine.n_stores >= 100);
        Alcotest.(check bool) "at least 100 branches" true (stats.Interp.Machine.n_branches >= 100));
    Alcotest.test_case "observer sees accesses" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int g; int main(void){ g = 5; int x = g; return x; }"
        in
        let m = Interp.Machine.load p in
        let seen = ref [] in
        m.Interp.Machine.st.Interp.Machine.observer <-
          Some (fun aid kind addr size -> seen := (aid, kind, addr, size) :: !seen);
        ignore (Interp.Machine.run m);
        let stores =
          List.filter (fun (_, k, _, _) -> k = Minic.Visit.Store) !seen
        in
        let loads = List.filter (fun (_, k, _, _) -> k = Minic.Visit.Load) !seen in
        Alcotest.(check bool) "stores observed" true (List.length stores >= 2);
        Alcotest.(check bool) "loads observed" true (List.length loads >= 1);
        (* the store to g and the load of g hit the same address *)
        let g_addr =
          Interp.Machine.global_addr m.Interp.Machine.st "g"
        in
        Alcotest.(check bool) "g's address accessed" true
          (List.exists (fun (_, _, a, _) -> a = g_addr) !seen));
    Alcotest.test_case "peak memory tracks heap" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int i; for(i=0;i<10;i++){ char *p = (char *)malloc(1000); free(p); } return 0; }"
        in
        let m = Interp.Machine.load p in
        let before = Interp.Memory.peak_bytes m.Interp.Machine.st.Interp.Machine.mem in
        ignore (Interp.Machine.run m);
        let after = Interp.Memory.peak_bytes m.Interp.Machine.st.Interp.Machine.mem in
        (* free-list reuse keeps peak growth to ~one block, not ten *)
        Alcotest.(check bool) "peak grew modestly" true (after - before < 3000));
    Alcotest.test_case "loop hook fires" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int i; int s = 0; for(i=0;i<7;i++) s += i; return 0; }"
        in
        let m = Interp.Machine.load p in
        let iters = ref 0 and enters = ref 0 and exits = ref 0 in
        m.Interp.Machine.st.Interp.Machine.loop_hook <-
          Some
            (fun _lid ev ->
              match ev with
              | Interp.Machine.Enter -> incr enters
              | Interp.Machine.Iter _ -> incr iters
              | Interp.Machine.Exit -> incr exits);
        ignore (Interp.Machine.run m);
        Alcotest.(check int) "enter once" 1 !enters;
        (* 7 executed iterations plus the trailing failed-condition test *)
        Alcotest.(check int) "8 iter events" 8 !iters;
        Alcotest.(check int) "exit once" 1 !exits);
  ]

(* qcheck property: interpretation of integer arithmetic expressions
   agrees with a reference big-step evaluator over int64 with 32-bit
   truncation. *)
let gen_arith : (string * int64) QCheck.Gen.t =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then
      let* v = int_range 0 1000 in
      return (string_of_int v, Int64.of_int v)
    else
      let* op = oneofl [ "+"; "-"; "*" ] in
      let* l, lv = gen (n / 2) in
      let* r, rv = gen (n / 2) in
      let f =
        match op with
        | "+" -> Int64.add
        | "-" -> Int64.sub
        | _ -> Int64.mul
      in
      let trunc v = Int64.shift_right (Int64.shift_left v 32) 32 in
      return (Printf.sprintf "(%s %s %s)" l op r, trunc (f lv rv))
  in
  gen 6

let arith_agrees =
  QCheck.Test.make ~count:200 ~name:"interpreted arithmetic agrees with reference"
    (QCheck.make gen_arith ~print:fst)
    (fun (src, expected) ->
      let code, out =
        run (Printf.sprintf "int main(void){ printf(\"%%d\", %s); return 0; }" src)
      in
      code = 0 && Int64.of_string out = expected)

let () =
  Alcotest.run "interp"
    [
      ("semantics", semantics_tests);
      ("pointers", pointer_tests);
      ("control", control_tests);
      ("failures", failure_tests);
      ("long range", long_range_tests);
      ("allocation", allocation_tests);
      ("accounting", accounting_tests);
      ("properties", [ QCheck_alcotest.to_alcotest arith_agrees ]);
    ]
