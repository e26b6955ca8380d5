module Rng = Svutil.Rng
module Listx = Svutil.Listx
module Subset = Svutil.Subset
module Table = Svutil.Table

(* Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed different stream" true (seq (Rng.create 7) <> seq c)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_invalid () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 0) 0))

let test_rng_split_independent () =
  let r = Rng.create 3 in
  let s = Rng.split r in
  let a = List.init 10 (fun _ -> Rng.int r 100) in
  let b = List.init 10 (fun _ -> Rng.int s 100) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let xs = Listx.range 20 in
  let shuffled = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare shuffled)

let test_rng_sample () =
  let r = Rng.create 9 in
  let xs = Listx.range 10 in
  let s = Rng.sample r 4 xs in
  Alcotest.(check int) "size" 4 (List.length s);
  Alcotest.(check int) "distinct" 4 (List.length (Listx.dedup s));
  Alcotest.(check bool) "subset" true (Listx.is_subset s xs);
  Alcotest.(check (list int)) "oversample returns all" xs (List.sort compare (Rng.sample r 50 xs))

(* Listx --------------------------------------------------------------- *)

let test_listx_basics () =
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Listx.range 3);
  Alcotest.(check int) "sum_by" 6 (Listx.sum_by Fun.id [ 1; 2; 3 ]);
  Alcotest.(check int) "max_by empty" 0 (Listx.max_by Fun.id []);
  Alcotest.(check (list int)) "dedup" [ 1; 2; 3 ] (Listx.dedup [ 3; 1; 2; 1; 3 ]);
  Alcotest.(check bool) "is_subset" true (Listx.is_subset [ 1; 2 ] [ 2; 3; 1 ]);
  Alcotest.(check bool) "not subset" false (Listx.is_subset [ 1; 4 ] [ 2; 3; 1 ]);
  Alcotest.(check (list int)) "inter" [ 1; 2 ] (Listx.inter [ 2; 1; 4 ] [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "diff" [ 4 ] (Listx.diff [ 2; 1; 4 ] [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "union" [ 1; 2; 3 ] (Listx.union [ 1; 2 ] [ 2; 3 ]);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ])

let test_listx_cartesian () =
  Alcotest.(check int) "2x3" 6 (List.length (Listx.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
  Alcotest.(check (list (list int))) "empty product" [ [] ] (Listx.cartesian []);
  Alcotest.(check (list (list int))) "empty factor" [] (Listx.cartesian [ [ 1 ]; [] ])

let test_minimal_antichain () =
  let sets = [ [ 1 ]; [ 1; 2 ]; [ 3 ]; [ 2; 3 ] ] in
  let minimal = Listx.minimal_antichain Listx.is_subset sets in
  Alcotest.(check bool) "keeps [1]" true (List.mem [ 1 ] minimal);
  Alcotest.(check bool) "keeps [3]" true (List.mem [ 3 ] minimal);
  Alcotest.(check bool) "drops [1;2]" false (List.mem [ 1; 2 ] minimal);
  Alcotest.(check bool) "drops [2;3]" false (List.mem [ 2; 3 ] minimal)

(* Subset -------------------------------------------------------------- *)

let test_subset_counts () =
  Alcotest.(check int) "all" 8 (List.length (Subset.all [ 1; 2; 3 ]));
  Alcotest.(check int) "choose 2 of 4" 6 (List.length (Subset.of_size [ 1; 2; 3; 4 ] 2));
  Alcotest.(check int) "by size total" 16 (List.length (Subset.by_increasing_size [ 1; 2; 3; 4 ]));
  let sizes = List.map List.length (Subset.by_increasing_size [ 1; 2; 3 ]) in
  Alcotest.(check bool) "nondecreasing sizes" true (List.sort compare sizes = sizes)

let test_subset_iter_matches_all () =
  let seen = ref [] in
  Subset.iter [ 1; 2; 3 ] (fun s -> seen := s :: !seen);
  Alcotest.(check int) "count" 8 (List.length !seen);
  Alcotest.(check bool) "same sets" true
    (List.sort compare !seen = List.sort compare (Subset.all [ 1; 2; 3 ]))

let test_subset_guard () =
  let big = Listx.range 30 in
  Alcotest.check_raises "guard"
    (Invalid_argument "Subset: universe too large for exhaustive enumeration") (fun () ->
      ignore (Subset.all big))

(* Table --------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create [ "col"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name" ];
  Alcotest.(check string) "render"
    "col        value\n---------  -----\na          1\nlong-name" (Table.render t)

let test_table_too_many_cells () =
  let t = Table.create [ "one" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "a"; "b" ])

let test_deadline_none () =
  let d = Svutil.Deadline.none in
  Alcotest.(check bool) "is_none" true (Svutil.Deadline.is_none d);
  Alcotest.(check bool) "never expires" false (Svutil.Deadline.expired d);
  Alcotest.(check bool) "no remaining" true
    (Svutil.Deadline.remaining_ms d = None);
  Svutil.Deadline.check d;
  Alcotest.(check bool) "of_ms_opt None" true
    (Svutil.Deadline.is_none (Svutil.Deadline.of_ms_opt None))

let test_deadline_expiry () =
  let d = Svutil.Deadline.after_ms 0. in
  Alcotest.(check bool) "already expired" true (Svutil.Deadline.expired d);
  Alcotest.check_raises "check raises" Svutil.Deadline.Expired (fun () ->
      Svutil.Deadline.check d);
  let far = Svutil.Deadline.after_ms 3_600_000. in
  Alcotest.(check bool) "future not expired" false (Svutil.Deadline.expired far);
  (match Svutil.Deadline.remaining_ms far with
  | Some ms -> Alcotest.(check bool) "remaining positive" true (ms > 0.)
  | None -> Alcotest.fail "finite deadline has remaining time");
  match Svutil.Deadline.remaining_ms (Svutil.Deadline.after_ms (-50.)) with
  | Some ms -> Alcotest.(check (float 0.0)) "remaining clamps at zero" 0. ms
  | None -> Alcotest.fail "finite deadline has remaining time"

(* Json number printing -------------------------------------------------- *)

module Json = Svutil.Json

(* Every JSON number (corpus rows, metrics, request ids) is a Num float;
   integer-valued ones like 8. and tiny fractions like 1e-07 must
   survive to_string/of_string unchanged. *)
let test_json_numbers () =
  let p f = Json.number_to_string f in
  Alcotest.(check string) "integral prints without fraction" "8" (p 8.);
  Alcotest.(check string) "negative integral" "-3" (p (-3.));
  Alcotest.(check string) "zero" "0" (p 0.);
  Alcotest.(check string) "2^53" "9007199254740992" (p 9007199254740992.);
  Alcotest.(check string) "negative exponent" "1e-07" (p 1e-07);
  Alcotest.(check string) "huge integral uses exponent form" "1e+16" (p 1e16);
  (* JSON has no non-finite numbers: they serialize as null (and hence
     re-parse as Null rather than failing). *)
  Alcotest.(check string) "nan is null" "null" (p Float.nan);
  Alcotest.(check string) "inf is null" "null" (p Float.infinity);
  Alcotest.(check string) "to_string Num inf" "null"
    (Json.to_string (Json.Num Float.neg_infinity));
  Alcotest.(check bool) "null re-parses" true
    (Json.of_string (Json.to_string (Json.Num Float.nan)) = Ok Json.Null)

(* Nesting is bounded: a line nested far past the limit fails at the
   first bracket beyond it, without reading (or recursing into) the
   rest, and the limit itself still parses. *)
let test_json_nesting () =
  let arrays k = String.make k '[' ^ String.make k ']' in
  let objects k =
    String.concat "" (List.init k (fun _ -> {|{"a":|})) ^ "0" ^ String.make k '}'
  in
  let too_deep = Printf.sprintf "nesting deeper than %d at offset %d" Json.max_depth in
  Alcotest.(check int) "limit" 512 Json.max_depth;
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) (what ^ " at the limit parses") true
        (Result.is_ok (Json.of_string (text Json.max_depth))))
    [ ("arrays", arrays); ("objects", objects) ];
  Alcotest.(check (result reject string)) "one array past the limit"
    (Error (too_deep Json.max_depth))
    (Json.of_string (arrays (Json.max_depth + 1)));
  Alcotest.(check (result reject string)) "one object past the limit"
    (Error (too_deep (5 * Json.max_depth)))
    (Json.of_string (objects (Json.max_depth + 1)));
  Alcotest.(check (result reject string)) "100,000 open brackets"
    (Error (too_deep Json.max_depth))
    (Json.of_string (String.make 100_000 '['))

let json_roundtrip_num f =
  match Json.of_string (Json.to_string (Json.Num f)) with
  | Ok (Json.Num g) -> Int64.bits_of_float g = Int64.bits_of_float f
  | _ -> false

(* Properties ------------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let props =
  [
    prop "dedup is sorted and duplicate-free" QCheck2.Gen.(list small_int) (fun xs ->
        let d = Listx.dedup xs in
        List.sort_uniq compare d = d);
    prop "inter is a subset of both" QCheck2.Gen.(pair (list small_int) (list small_int))
      (fun (a, b) ->
        let i = Listx.inter a b in
        Listx.is_subset i a && Listx.is_subset i b);
    prop "diff and inter partition" QCheck2.Gen.(pair (list small_int) (list small_int))
      (fun (a, b) ->
        let inter = Listx.inter a b and diff = Listx.diff a b in
        List.for_all (fun x -> List.mem x inter || List.mem x diff) a);
    prop "subset count is 2^n" QCheck2.Gen.(int_range 0 10) (fun n ->
        List.length (Subset.all (Listx.range n)) = 1 lsl n);
    prop "shuffle preserves multiset" QCheck2.Gen.(pair (int_range 0 10000) (list small_int))
      (fun (seed, xs) ->
        List.sort compare (Rng.shuffle (Rng.create seed) xs) = List.sort compare xs);
    prop "Par.map agrees with List.map at any width"
      QCheck2.Gen.(pair (int_range 1 8) (list small_int))
      (fun (jobs, xs) ->
        Svutil.Par.map ~jobs (fun x -> (x * 2) + 1) xs
        = List.map (fun x -> (x * 2) + 1) xs);
    prop "Par.map_array preserves order"
      QCheck2.Gen.(pair (int_range 1 8) (array small_int))
      (fun (jobs, xs) ->
        Svutil.Par.map_array ~jobs string_of_int xs = Array.map string_of_int xs);
    prop "Pq pops in key order" QCheck2.Gen.(list small_int) (fun xs ->
        let pq = Svutil.Pq.create ~cmp:compare in
        List.iter (Svutil.Pq.push pq) xs;
        let rec drain acc =
          match Svutil.Pq.pop pq with
          | Some x -> drain (x :: acc)
          | None -> List.rev acc
        in
        drain [] = List.sort compare xs);
    prop "Json integer-valued floats round-trip bit-exactly"
      QCheck2.Gen.(int_range (-1_000_000_000) 1_000_000_000)
      (fun n -> json_roundtrip_num (float_of_int n));
    prop "Json scaled floats round-trip bit-exactly"
      QCheck2.Gen.(pair (int_range (-999_999) 999_999) (int_range (-12) 12))
      (fun (m, e) -> json_roundtrip_num (float_of_int m *. (10. ** float_of_int e)));
    prop "Json raw float bit patterns round-trip (finite) or null out"
      QCheck2.Gen.(map Int64.of_int int)
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then json_roundtrip_num f
        else
          Json.of_string (Json.to_string (Json.Num f)) = Ok Json.Null);
  ]

let test_par_exception () =
  (* A worker exception must surface to the caller, not vanish in a
     domain. *)
  match Svutil.Par.map ~jobs:4 (fun x -> if x = 3 then failwith "boom" else x) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_pq_clear_and_peek () =
  let pq = Svutil.Pq.create ~cmp:compare in
  Alcotest.(check bool) "fresh is empty" true (Svutil.Pq.is_empty pq);
  List.iter (Svutil.Pq.push pq) [ 3; 1; 2 ];
  Alcotest.(check (option int)) "peek is min" (Some 1) (Svutil.Pq.peek pq);
  Alcotest.(check int) "length" 3 (Svutil.Pq.length pq);
  Svutil.Pq.clear pq;
  Alcotest.(check bool) "cleared" true (Svutil.Pq.is_empty pq);
  Alcotest.(check (option int)) "pop on empty" None (Svutil.Pq.pop pq)

let () =
  Alcotest.run "svutil"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample" `Quick test_rng_sample;
        ] );
      ( "listx",
        [
          Alcotest.test_case "basics" `Quick test_listx_basics;
          Alcotest.test_case "cartesian" `Quick test_listx_cartesian;
          Alcotest.test_case "minimal antichain" `Quick test_minimal_antichain;
        ] );
      ( "subset",
        [
          Alcotest.test_case "counts" `Quick test_subset_counts;
          Alcotest.test_case "iter matches all" `Quick test_subset_iter_matches_all;
          Alcotest.test_case "guard" `Quick test_subset_guard;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "number printing" `Quick test_json_numbers;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting;
        ] );
      ( "par",
        [
          Alcotest.test_case "worker exception propagates" `Quick test_par_exception;
          Alcotest.test_case "pq clear and peek" `Quick test_pq_clear_and_peek;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "none" `Quick test_deadline_none;
          Alcotest.test_case "expiry" `Quick test_deadline_expiry;
        ] );
      ("properties", props);
    ]
