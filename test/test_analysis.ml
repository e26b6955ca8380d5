(* Wfcheck: per-code unit fixtures, plus properties — every generated
   workflow lints clean (no errors), and targeted mutations (drop a row,
   cross-wire an attribute, negate a cost) trip exactly the expected
   code. *)

module C = Analysis.Wfcheck
module P = Wf.Parse

let raw_of text =
  match P.parse_raw_string text with
  | Ok raw -> raw
  | Error e -> Alcotest.failf "unexpected syntax error: %s" e

let codes_of text =
  List.map (fun (d : C.diagnostic) -> d.C.code) (C.check_raw (raw_of text))

let has code text =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported" code)
    true
    (List.mem code (codes_of text))

(* --- clean specs ------------------------------------------------------ *)

let test_clean () =
  Alcotest.(check (list string)) "fig1 clean" []
    (codes_of (In_channel.with_open_text "../examples/fig1.swf" In_channel.input_all));
  Alcotest.(check (list string)) "genomics clean" []
    (codes_of (In_channel.with_open_text "../examples/genomics.swf" In_channel.input_all));
  Alcotest.(check (list string)) "library fig1 clean" []
    (List.map
       (fun (d : C.diagnostic) -> d.C.code)
       (C.check_workflow ~gamma:2 (Wf.Library.fig1_workflow ())))

(* --- one fixture per code --------------------------------------------- *)

let test_wiring () =
  has "W001" "attr x\nmodule m private inputs x outputs y\nrow m 0 -> 0";
  has "W002"
    "attr x\nattr y\nmodule f private inputs x outputs y\nfn f negate\nmodule g private inputs x outputs y\nfn g identity";
  has "W003"
    "attr x\nattr y\nmodule f private inputs x outputs y\nfn f identity\nmodule g private inputs y outputs x\nfn g negate";
  has "W004"
    "attr x\nattr y\nattr z\nmodule m1 private inputs x outputs y\nrow m1 0 -> 0\nrow m1 1 -> 0\nmodule m2 private inputs y outputs z\nrow m2 1 -> 0";
  has "W005" "attr x\nattr y\nattr dead\nmodule m private inputs x outputs y\nfn m negate"

let test_functionality () =
  has "W010"
    "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 0\nrow m 0 -> 1";
  has "W011"
    "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 1\nrow m 0 -> 1";
  has "W012" "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 1";
  has "W013" "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 2";
  has "W014" "attr x\nattr y\nmodule m private inputs x outputs y";
  has "W015"
    "attr x\nattr y\nmodule m private inputs x outputs y\nfn m negate\nrow m 0 -> 1";
  has "W016" "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 1 -> 0";
  has "W017" "attr x\nattr y\nmodule m private inputs x outputs y\nfn m nonsense";
  has "W017" "attr x\nattr y\nattr z\nmodule m private inputs x outputs y z\nfn m and";
  has "W017" "attr x dom 3\nattr y dom 3\nmodule m private inputs x outputs y\nfn m identity";
  has "W017" "attr x\nattr y\nmodule m private inputs x outputs y\nfn m constant 1 2"

let test_privacy_feasibility () =
  has "W020" "gamma 4\nattr x\nattr y\nmodule m private inputs x outputs y\nfn m negate";
  has "W020"
    "gamma m 3\nattr x\nattr y\nmodule m private inputs x outputs y\nfn m negate";
  (* public modules carry no standalone requirement *)
  Alcotest.(check bool) "no W020 for publics" false
    (List.mem "W020"
       (codes_of "gamma 4\nattr x\nattr y\nmodule m public inputs x outputs y\nfn m negate"));
  has "W021" "attr x\nattr y\nmodule copy private inputs x outputs y\nfn copy identity";
  has "W021"
    "attr x\nattr y\nmodule copy private inputs x outputs y\nrow copy 0 -> 0\nrow copy 1 -> 1";
  (* ... but a public identity is the genomics pattern and is fine *)
  Alcotest.(check bool) "no W021 for publics" false
    (List.mem "W021"
       (codes_of "attr x\nattr y\nmodule qc public inputs x outputs y\nfn qc identity"))

let test_sanity () =
  has "W030" "attr x cost -3\nattr y\nmodule m private inputs x outputs y\nfn m negate";
  has "W031" "gamma ghost 4\nattr x\nattr y\nmodule m private inputs x outputs y\nfn m negate";
  has "W032" "gamma 0\nattr x\nattr y\nmodule m private inputs x outputs y\nfn m negate";
  has "W033" "attr x dom 0\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 0";
  has "W034" "attr x dom 1\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 1";
  has "W035" "attr x\nattr y\nmodule m public cost -2 inputs x outputs y\nfn m identity";
  has "W036" "attr x\nattr x\nattr y\nmodule m private inputs x outputs y\nfn m negate";
  has "W037"
    "attr x\nattr y\nattr z\nmodule m private inputs x outputs y\nfn m negate\nmodule m private inputs x outputs z\nfn m identity"

let test_blowup () =
  has "W040"
    "attr a\nattr b\nattr c\nattr d\nattr e\nattr y\nmodule m private inputs a b c d e outputs y\nfn m xor";
  (* deep chains overflow the function-family space even when every
     module's standalone space is fine *)
  let chain =
    String.concat "\n"
      (List.concat_map
         (fun i ->
           [
             Printf.sprintf "attr c%d" i;
             Printf.sprintf "attr d%d" i;
             Printf.sprintf "module m%d private inputs %s outputs c%d d%d" i
               (if i = 0 then "a b" else Printf.sprintf "c%d d%d" (i - 1) (i - 1))
               i i;
             Printf.sprintf "row m%d 0 0 -> 0 1" i;
             Printf.sprintf "row m%d 0 1 -> 1 1" i;
             Printf.sprintf "row m%d 1 0 -> 1 0" i;
             Printf.sprintf "row m%d 1 1 -> 0 0" i;
           ])
         [ 0; 1; 2 ])
  in
  let text = "attr a\nattr b\n" ^ chain in
  let codes = codes_of text in
  Alcotest.(check bool) "W041 reported" true (List.mem "W041" codes);
  Alcotest.(check bool) "no W040" false (List.mem "W040" codes)

let test_rendering () =
  let ds = C.check_raw (raw_of "gamma 0\nattr x\nattr y\nmodule m private inputs x outputs y\nfn m negate") in
  Alcotest.(check bool) "has errors" true (C.has_errors ds);
  let text = C.to_text ~file:"spec.swf" ds in
  Alcotest.(check bool) "text cites file:line" true
    (String.length text >= 10 && String.sub text 0 10 = "spec.swf:1");
  let json = C.to_json ds in
  Alcotest.(check bool) "json has code field" true
    (Svutil.Listx.is_subset [ "W032" ]
       (List.map (fun (d : C.diagnostic) -> d.C.code) ds)
    &&
    let needle = "\"code\":\"W032\"" in
    let rec search i =
      i + String.length needle <= String.length json
      && (String.sub json i (String.length needle) = needle || search (i + 1))
    in
    search 0)

let test_code_reference_consistent () =
  let codes = List.map (fun (c, _, _, _) -> c) C.code_reference in
  Alcotest.(check int) "codes unique" (List.length codes)
    (List.length (Svutil.Listx.dedup codes));
  List.iter
    (fun (_, _, meaning, hint) ->
      Alcotest.(check bool) "documented" true (meaning <> "" && hint <> ""))
    C.code_reference

(* --- properties over generated workflows ------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

let gen_raw =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 2 5 in
    let* max_sharing = int_range 1 3 in
    let rng = Svutil.Rng.create seed in
    let w =
      Wf.Gen.random_workflow rng { Wf.Gen.default with n_modules; max_sharing }
    in
    let costs = Wf.Gen.random_costs rng w in
    return (C.raw_of_workflow ~costs ~gamma:2 w))

let errors_of raw =
  List.map (fun (d : C.diagnostic) -> d.C.code) (C.errors (C.check_raw raw))

let mutate_module raw i f =
  {
    raw with
    P.r_modules = List.mapi (fun j m -> if i = j then f m else m) raw.P.r_modules;
  }

let props =
  [
    prop "generated workflows lint clean" gen_raw (fun raw -> errors_of raw = []);
    prop "dropping a row trips W012" gen_raw (fun raw ->
        let mutated =
          mutate_module raw 0 (fun m -> { m with P.m_rows = List.tl m.P.m_rows })
        in
        let before = C.check_raw raw and after = C.check_raw mutated in
        let c12 ds = List.exists (fun (d : C.diagnostic) -> d.C.code = "W012") ds in
        (not (c12 before)) && c12 after);
    prop "cross-wiring an output trips W002" gen_raw (fun raw ->
        let first = List.hd raw.P.r_modules in
        let stolen = List.hd first.P.m_outputs in
        let mutated =
          mutate_module raw 1 (fun m ->
              { m with P.m_outputs = stolen :: List.tl m.P.m_outputs })
        in
        List.mem "W002" (errors_of mutated));
    prop "negating a cost trips W030" gen_raw (fun raw ->
        let mutated =
          {
            raw with
            P.r_attrs =
              (match raw.P.r_attrs with
              | a :: rest -> { a with P.a_cost = Rat.neg a.P.a_cost } :: rest
              | [] -> []);
          }
        in
        let w030 = List.mem "W030" (errors_of mutated) in
        let only_new =
          Svutil.Listx.diff (errors_of mutated) (errors_of raw) = [ "W030" ]
        in
        w030 && only_new);
  ]

(* --- the preflight entry point ------------------------------------------ *)

let fixtures () =
  let in_dir dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".swf")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  in_dir "../examples" @ in_dir "../examples/bad"

let test_check_spec_errors () =
  (* [check_spec] skips the W05x flow pass, which emits no errors, so on
     every fixture that elaborates it must equal the errors [check_raw]
     reports over the same declarations. *)
  let elaborated = ref 0 in
  List.iter
    (fun file ->
      match P.parse_raw_file file with
      | Error _ -> ()
      | Ok raw -> (
          match P.spec_of_raw raw with
          | Error _ -> ()
          | Ok spec ->
              incr elaborated;
              let show ds = List.map (fun (d : C.diagnostic) -> C.to_text [ d ]) ds in
              Alcotest.(check (list string)) file
                (show (C.errors (C.check_raw raw)))
                (show (C.check_spec spec))))
    (fixtures ());
  Alcotest.(check bool) "fixtures elaborate" true (!elaborated > 2)

let () =
  Alcotest.run "analysis"
    [
      ( "wfcheck",
        [
          Alcotest.test_case "clean specs" `Quick test_clean;
          Alcotest.test_case "wiring W00x" `Quick test_wiring;
          Alcotest.test_case "functionality W01x" `Quick test_functionality;
          Alcotest.test_case "privacy W02x" `Quick test_privacy_feasibility;
          Alcotest.test_case "sanity W03x" `Quick test_sanity;
          Alcotest.test_case "blow-up W04x" `Quick test_blowup;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "code reference" `Quick test_code_reference_consistent;
          Alcotest.test_case "check_spec = errors of check_raw" `Quick
            test_check_spec_errors;
        ] );
      ("properties", props);
    ]
