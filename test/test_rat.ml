module B = Bigint
module Q = Rat

let rat = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rat

let test_normalization () =
  check_q "6/4 = 3/2" (Q.of_ints 3 2) (Q.of_ints 6 4);
  check_q "neg den" (Q.of_ints (-3) 2) (Q.of_ints 3 (-2));
  check_q "zero" Q.zero (Q.of_ints 0 17);
  Alcotest.(check string) "den positive" "1" (B.to_string (Q.den (Q.of_ints 0 17)))

let test_make_zero_den () =
  Alcotest.check_raises "raise" Division_by_zero (fun () -> ignore (Q.of_ints 1 0))

let test_arith () =
  check_q "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "1/2 - 1/3" (Q.of_ints 1 6) (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "2/3 * 3/4" (Q.of_ints 1 2) (Q.mul (Q.of_ints 2 3) (Q.of_ints 3 4));
  check_q "(1/2) / (3/4)" (Q.of_ints 2 3) (Q.div (Q.of_ints 1 2) (Q.of_ints 3 4));
  check_q "inv" (Q.of_ints (-2) 5) (Q.inv (Q.of_ints (-5) 2))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.lt (Q.of_ints 1 3) (Q.of_ints 1 2));
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.lt (Q.of_ints (-1) 2) (Q.of_ints 1 3));
  Alcotest.(check bool) "eq cross" true (Q.equal (Q.of_ints 2 4) (Q.of_ints 1 2));
  check_q "min" (Q.of_ints 1 3) (Q.min (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "max" (Q.of_ints 1 2) (Q.max (Q.of_ints 1 2) (Q.of_ints 1 3))

let test_floor_ceil () =
  let check_fc s v fl ce =
    Alcotest.(check string) (s ^ " floor") fl (B.to_string (Q.floor v));
    Alcotest.(check string) (s ^ " ceil") ce (B.to_string (Q.ceil v))
  in
  check_fc "7/2" (Q.of_ints 7 2) "3" "4";
  check_fc "-7/2" (Q.of_ints (-7) 2) "-4" "-3";
  check_fc "4" (Q.of_int 4) "4" "4";
  check_fc "-4" (Q.of_int (-4)) "-4" "-4"

let test_strings () =
  Alcotest.(check string) "int" "5" (Q.to_string (Q.of_int 5));
  Alcotest.(check string) "frac" "-3/7" (Q.to_string (Q.of_ints 3 (-7)));
  check_q "parse frac" (Q.of_ints 22 7) (Q.of_string "22/7");
  check_q "parse int" (Q.of_int (-12)) (Q.of_string "-12");
  check_q "parse decimal" (Q.of_ints 5 4) (Q.of_string "1.25");
  check_q "parse neg decimal" (Q.of_ints (-5) 4) (Q.of_string "-1.25");
  check_q "parse decimal < 1" (Q.of_ints 1 100) (Q.of_string "0.01")

let test_to_float () =
  Alcotest.(check (float 1e-9)) "1/4" 0.25 (Q.to_float (Q.of_ints 1 4));
  Alcotest.(check (float 1e-9)) "-2/3" (-0.6666666666) (Q.to_float (Q.of_ints (-2) 3))

let test_sum () =
  check_q "harmonic 4" (Q.of_ints 25 12)
    (Q.sum [ Q.one; Q.of_ints 1 2; Q.of_ints 1 3; Q.of_ints 1 4 ])

let test_int_helpers () =
  check_q "mul_int" (Q.of_ints 3 2) (Q.mul_int (Q.of_ints 1 2) 3);
  check_q "div_int" (Q.of_ints 1 6) (Q.div_int (Q.of_ints 1 2) 3);
  Alcotest.check_raises "div_int by zero" Division_by_zero (fun () ->
      ignore (Q.div_int Q.one 0));
  check_q "abs" (Q.of_ints 2 3) (Q.abs (Q.of_ints (-2) 3));
  Alcotest.(check int) "sign neg" (-1) (Q.sign (Q.of_ints (-1) 7));
  Alcotest.(check int) "sign zero" 0 (Q.sign Q.zero)

let test_to_int_opt () =
  Alcotest.(check (option int)) "int" (Some 9) (Q.to_int_opt (Q.of_ints 18 2));
  Alcotest.(check (option int)) "non-int" None (Q.to_int_opt (Q.of_ints 1 2))

(* The unboxed fast path hands off to {!Bigint} beyond [2^30]; exercise
   arithmetic that crosses the boundary in both directions. *)
let test_representation_boundary () =
  let lim = 1 lsl 30 in
  let big = Q.of_int lim in
  check_q "promote on add"
    (Q.make (B.of_int (2 * lim)) B.one)
    (Q.add big big);
  check_q "promote on mul"
    (Q.make (B.mul (B.of_int lim) (B.of_int lim)) B.one)
    (Q.mul big big);
  (* demote: a big-representation intermediate that cancels back down *)
  check_q "demote on div" Q.one (Q.div (Q.mul big big) (Q.mul big big));
  check_q "demote on sub" (Q.of_int 1) (Q.sub (Q.add big Q.one) big);
  Alcotest.(check (option int))
    "to_int_opt across boundary" (Some (2 * lim))
    (Q.to_int_opt (Q.add big big));
  (* equality must not depend on how a value was computed *)
  let a = Q.div (Q.of_int (lim - 1)) (Q.of_int 3) in
  let b = Q.make (B.of_int (lim - 1)) (B.of_int 3) in
  Alcotest.(check bool) "same rep either route" true (a = b);
  Alcotest.(check bool)
    "near-boundary product"
    (Q.equal
       (Q.mul (Q.of_ints (lim - 1) 7) (Q.of_ints 7 (lim - 1)))
       Q.one)
    true

(* Property tests *)

let gen_rat =
  QCheck2.Gen.(
    let* n = int_range (-10000) 10000 in
    let* d = int_range 1 10000 in
    return (Q.of_ints n d))

(* Mix magnitudes so products and cross-terms land on both sides of the
   unboxed-representation limit. *)
let gen_wide_rat =
  QCheck2.Gen.(
    let* scale = oneofl [ 1; 1 lsl 15; (1 lsl 30) - 1; 1 lsl 40 ] in
    let* n = int_range (-1000) 1000 in
    let* d = int_range 1 1000 in
    let* flip = bool in
    return
      (if flip then Q.of_ints (n * scale) d else Q.of_ints n (d * scale)))

(* Integers within 1000 of [+-2^30], the native arm's limit: sums,
   differences and products of two of them land on both sides of it. *)
let gen_edge_int =
  QCheck2.Gen.(
    let* side = oneofl [ 1 lsl 30; -(1 lsl 30) ] in
    let* off = int_range (-1000) 1000 in
    return (side + off))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

(* Decimal integers as a spec writes them: an optional sign, leading
   zeros, 1 to 25 digits, so both sides of the native nine-digit read
   are drawn. *)
let gen_decimal =
  QCheck2.Gen.(
    let* sign = oneofl [ ""; "-"; "+" ] in
    let* zeros = int_range 0 3 in
    let* digits = int_range 1 25 in
    let* body = string_size ~gen:(char_range '0' '9') (return digits) in
    return (sign ^ String.make zeros '0' ^ body))

(* [of_string] reads short decimals natively; the values and the
   exceptions are the Bigint route's. *)
let test_of_string_errors () =
  List.iter
    (fun (s, e) -> Alcotest.check_raises (Printf.sprintf "%S" s) e (fun () -> ignore (Q.of_string s)))
    [
      ("", Invalid_argument "Bigint.of_string: empty string");
      ("-", Invalid_argument "Bigint.of_string: no digits");
      ("+", Invalid_argument "Bigint.of_string: no digits");
      ("1a", Invalid_argument "Bigint.of_string: invalid digit");
      ("1/0", Division_by_zero);
    ]

let props =
  [
    prop "add commutes" QCheck2.Gen.(pair gen_rat gen_rat) (fun (a, b) ->
        Q.equal (Q.add a b) (Q.add b a));
    prop "mul distributes" QCheck2.Gen.(triple gen_rat gen_rat gen_rat) (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "sub then add" QCheck2.Gen.(pair gen_rat gen_rat) (fun (a, b) ->
        Q.equal a (Q.add (Q.sub a b) b));
    prop "div then mul" QCheck2.Gen.(pair gen_rat gen_rat) (fun (a, b) ->
        Q.is_zero b || Q.equal a (Q.mul (Q.div a b) b));
    prop "normalized gcd" gen_rat (fun a ->
        B.equal B.one (B.gcd (Q.num a) (Q.den a)) || Q.is_zero a);
    prop "floor <= x < floor+1" gen_rat (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.leq f a && Q.lt a (Q.add f Q.one));
    prop "ceil - floor <= 1" gen_rat (fun a ->
        let d = B.sub (Q.ceil a) (Q.floor a) in
        B.equal d B.zero || B.equal d B.one);
    prop "string roundtrip" gen_rat (fun a -> Q.equal a (Q.of_string (Q.to_string a)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~name:"of_string = bigint route" ~print:(Printf.sprintf "%S")
         gen_decimal (fun s -> Q.of_string s = Q.of_bigint (B.of_string s)));
    prop "to_float close" gen_rat (fun a ->
        Float.abs (Q.to_float a -. (Q.to_float (Q.of_bigint (Q.num a)) /. Q.to_float (Q.of_bigint (Q.den a)))) < 1e-9);
    prop "compare antisym" QCheck2.Gen.(pair gen_rat gen_rat) (fun (a, b) ->
        Q.compare a b = -Q.compare b a);
    (* Wide-magnitude twins of the core laws: the same identities must
       hold when operands and intermediates straddle the unboxed
       limit. *)
    prop "wide add/sub roundtrip" QCheck2.Gen.(pair gen_wide_rat gen_wide_rat)
      (fun (a, b) -> Q.equal a (Q.add (Q.sub a b) b));
    prop "wide mul/div roundtrip" QCheck2.Gen.(pair gen_wide_rat gen_wide_rat)
      (fun (a, b) -> Q.is_zero b || Q.equal a (Q.div (Q.mul a b) b));
    prop "wide agrees with bigint route"
      QCheck2.Gen.(pair gen_wide_rat gen_wide_rat)
      (fun (a, b) ->
        let via_bigint =
          Q.make
            (B.add (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a)))
            (B.mul (Q.den a) (Q.den b))
        in
        (* structural equality too: representations must be canonical *)
        Q.add a b = via_bigint);
    (* Denominator-1 results take [norm_small]'s fast path: it must
       build the same representation as the Bigint route, so a native
       [S] outside the native range fails structural equality. *)
    prop "integer edge agrees with bigint route"
      QCheck2.Gen.(pair gen_edge_int gen_edge_int)
      (fun (a, b) ->
        let qa = Q.of_int a and qb = Q.of_int b in
        let ba = B.of_int a and bb = B.of_int b in
        Q.add qa qb = Q.make (B.add ba bb) B.one
        && Q.sub qa qb = Q.make (B.sub ba bb) B.one
        && Q.mul qa qb = Q.make (B.mul ba bb) B.one);
    prop "wide normalized gcd" gen_wide_rat (fun a ->
        B.equal B.one (B.gcd (Q.num a) (Q.den a)) || Q.is_zero a);
    prop "wide compare vs float" QCheck2.Gen.(pair gen_wide_rat gen_wide_rat)
      (fun (a, b) ->
        let fa = Q.to_float a and fb = Q.to_float b in
        Float.abs (fa -. fb) < 1e-6 || Q.compare a b = Float.compare fa fb);
  ]

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "zero denominator" `Quick test_make_zero_den;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "sum" `Quick test_sum;
          Alcotest.test_case "int helpers" `Quick test_int_helpers;
          Alcotest.test_case "to_int_opt" `Quick test_to_int_opt;
          Alcotest.test_case "representation boundary" `Quick
            test_representation_boundary;
        ] );
      ("properties", props);
    ]
