(* Integration tests for the secure_view_cli binary: the --metrics
   surface must emit JSON that actually parses and whose counters agree
   with the engine's stats block.

   The binary and the example fixtures are declared as deps in
   test/dune; paths are resolved relative to this test executable so
   the suite works under both `dune runtest` and `dune exec`. *)

let base = Filename.dirname Sys.executable_name
let cli = Filename.concat base "../bin/secure_view_cli.exe"
let example f = Filename.concat base ("../examples/" ^ f)

let run_cli args =
  let cmd = Filename.quote_command cli args ^ " 2>/dev/null" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let ok = match status with Unix.WEXITED 0 -> true | _ -> false in
  (ok, String.trim (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* A tiny generic JSON reader (objects, arrays, strings, numbers,       *)
(* booleans, null) — just enough to assert the CLI output is valid      *)
(* JSON with the expected structure.                                    *)
(* ------------------------------------------------------------------ *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad of string

let parse_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= len then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= len then fail "bad unicode escape";
              (* decoded value irrelevant for these tests *)
              Buffer.add_char b '?';
              pos := !pos + 4
          | _ -> fail "unsupported escape");
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elems (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ ->
        let start = !pos in
        while
          !pos < len
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "malformed number")
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let parse_ok what s =
  match parse_json s with
  | v -> v
  | exception Bad msg -> Alcotest.fail (what ^ ": invalid JSON (" ^ msg ^ "): " ^ s)

let member what key = function
  | Obj kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> v
      | None -> Alcotest.fail (what ^ ": missing key " ^ key))
  | _ -> Alcotest.fail (what ^ ": not an object")

let has_key key = function Obj kvs -> List.mem_assoc key kvs | _ -> false

(* ------------------------------------------------------------------ *)
(* solve --json --metrics json                                         *)
(* ------------------------------------------------------------------ *)

let test_solve_metrics_json () =
  let ok, out =
    run_cli [ "solve"; example "fig1.swf"; "--json"; "-m"; "exact"; "--metrics"; "json" ]
  in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "solve output" out in
  let exact = member "solve output" "exact" doc in
  List.iter
    (fun k -> ignore (member "exact result" k exact))
    [ "method"; "solution"; "proven_optimal"; "timings_ms"; "stats"; "metrics" ];
  let metrics = member "exact result" "metrics" exact in
  let counters = member "metrics" "counters" metrics in
  let spans = member "metrics" "spans" metrics in
  Alcotest.(check bool) "solve span recorded" true (has_key "solve" spans);
  (* CLI-level consistency: the registry's node count is the stats'. *)
  let stats = member "exact result" "stats" exact in
  match (member "counters" "ilp.nodes" counters, member "stats" "nodes" stats) with
  | Num c, Str s ->
      Alcotest.(check string) "registry nodes = stats nodes" s
        (string_of_int (int_of_float c))
  | _ -> Alcotest.fail "ilp.nodes must be a number and stats.nodes a string"

let test_solve_metrics_off_by_default () =
  let ok, out = run_cli [ "solve"; example "fig1.swf"; "--json"; "-m"; "exact" ] in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "solve output" out in
  let exact = member "solve output" "exact" doc in
  Alcotest.(check bool) "no metrics key without --metrics" false
    (has_key "metrics" exact)

let test_solve_metrics_text_mode () =
  (* Without --json the registry is printed on its own "metrics" line;
     the payload must still be valid JSON. *)
  let ok, out =
    run_cli [ "solve"; example "fig1.swf"; "-m"; "exact"; "--metrics"; "json" ]
  in
  Alcotest.(check bool) "exit 0" true ok;
  let line =
    String.split_on_char '\n' out
    |> List.find_opt (fun l -> String.length l > 8 && String.sub l 0 8 = "metrics ")
  in
  match line with
  | None -> Alcotest.fail "expected a 'metrics exact {...}' line"
  | Some l -> (
      match String.index_opt l '{' with
      | None -> Alcotest.fail "metrics line has no JSON payload"
      | Some i ->
          let payload = String.sub l i (String.length l - i) in
          let m = parse_ok "metrics line" payload in
          ignore (member "metrics line" "counters" m))

(* ------------------------------------------------------------------ *)
(* batch --metrics json                                                *)
(* ------------------------------------------------------------------ *)

let test_batch_metrics () =
  let ok, out =
    run_cli
      [ "batch"; example "fig1.swf"; example "genomics.swf"; "--metrics"; "json" ]
  in
  Alcotest.(check bool) "exit 0" true ok;
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  (* One line per file plus the aggregated Metrics.merge footer. *)
  Alcotest.(check int) "two file lines and a footer" 3 (List.length lines);
  let file_lines, footer =
    match lines with
    | [ a; b; f ] -> ([ a; b ], f)
    | _ -> Alcotest.fail "unreachable"
  in
  List.iter
    (fun line ->
      let doc = parse_ok "batch line" line in
      (match member "batch line" "ok" doc with
      | Bool true -> ()
      | _ -> Alcotest.fail "batch line not ok");
      let result = member "batch line" "result" doc in
      let metrics = member "batch result" "metrics" result in
      let spans = member "batch metrics" "spans" metrics in
      Alcotest.(check bool) "per-file solve span" true (has_key "solve" spans))
    file_lines;
  let doc = parse_ok "batch footer" footer in
  let merged = member "batch footer" "metrics" doc in
  let spans = member "merged metrics" "spans" merged in
  match member "merged spans" "solve" spans with
  | Obj _ as solve -> (
      match member "merged solve span" "count" solve with
      | Num 2. -> ()
      | _ -> Alcotest.fail "merged solve span must count both files")
  | _ -> Alcotest.fail "merged spans must include solve"

let test_batch_no_metrics_by_default () =
  let ok, out = run_cli [ "batch"; example "fig1.swf" ] in
  Alcotest.(check bool) "exit 0" true ok;
  (* No live registries, so also no footer line. *)
  let doc = parse_ok "batch line" out in
  let result = member "batch line" "result" doc in
  Alcotest.(check bool) "no metrics key" false (has_key "metrics" result)

(* ------------------------------------------------------------------ *)
(* Exit codes (the Serve.Request mapping, uniform across subcommands)  *)
(* ------------------------------------------------------------------ *)

let run_cli_code args =
  Sys.command (Filename.quote_command cli args ^ " >/dev/null 2>/dev/null")

let with_temp_spec content f =
  let path = Filename.temp_file "cli_spec" ".swf" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_exit_codes () =
  Alcotest.(check int) "success" 0 (run_cli_code [ "solve"; example "fig1.swf" ]);
  Alcotest.(check int) "missing file is malformed input" 2
    (run_cli_code [ "solve"; example "no_such_file.swf" ]);
  with_temp_spec "attr a cost 1\nmodule m private\n" (fun bad ->
      Alcotest.(check int) "spec parse error" 2 (run_cli_code [ "solve"; bad ]);
      Alcotest.(check int) "lint agrees on parse errors" 2
        (run_cli_code [ "lint"; bad ]);
      Alcotest.(check int) "batch with a failing file" 1
        (run_cli_code [ "batch"; example "fig1.swf"; bad ]));
  (* W020: parses, fails the static preflight — code 1, not 2. *)
  with_temp_spec
    "gamma 4\nattr x\nattr y\nmodule m private inputs x outputs y\n\
     row m 0 -> 1\nrow m 1 -> 0\n" (fun unreachable ->
      Alcotest.(check int) "static preflight failure" 1
        (run_cli_code [ "solve"; unreachable ]));
  (* Command lines cmdliner rejects are malformed input too. *)
  List.iter
    (fun (label, args) ->
      Alcotest.(check int) label 2
        (run_cli_code ("solve" :: example "fig1.swf" :: args)))
    [
      ("unknown --lp-mode", [ "--lp-mode"; "bogus" ]);
      ("removed --lp-mode float", [ "--lp-mode"; "float" ]);
      ("unknown method", [ "-m"; "bogus" ]);
      ("non-integer --jobs", [ "--jobs"; "x" ]);
      ("unknown flag", [ "--no-such-flag" ]);
    ]

(* ------------------------------------------------------------------ *)
(* delta --json --verify --metrics json                                *)
(* ------------------------------------------------------------------ *)

let test_delta_metrics () =
  let ok, out =
    run_cli
      [
        "delta"; example "fig1.swf"; "--edits"; example "deltas/fig1_cost.delta";
        "--json"; "--verify"; "--metrics"; "json";
      ]
  in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "delta output" out in
  List.iter
    (fun k -> ignore (member "delta output" k doc))
    [ "parent"; "delta"; "reuse"; "touched"; "dirty" ];
  (match member "delta output" "verified" doc with
  | Bool true -> ()
  | _ -> Alcotest.fail "--verify must report verified:true");
  let d = member "delta output" "delta" doc in
  let metrics = member "delta result" "metrics" d in
  let counters = member "delta metrics" "counters" metrics in
  let spans = member "delta metrics" "spans" metrics in
  Alcotest.(check bool) "delta span recorded" true (has_key "delta" spans);
  Alcotest.(check bool) "subsolve span recorded" true
    (has_key "delta/subsolve" spans);
  match member "counters" "delta.dirty_attrs" counters with
  | Num n -> Alcotest.(check bool) "dirty attrs counted" true (n > 0.)
  | _ -> Alcotest.fail "delta.dirty_attrs must be a number"

let test_delta_noop () =
  let ok, out =
    run_cli
      [
        "delta"; example "fig1.swf"; "--edits"; example "deltas/fig1_noop.delta";
        "--json"; "--verify"; "--metrics"; "json";
      ]
  in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "delta output" out in
  (match member "delta output" "reuse" doc with
  | Str "noop" -> ()
  | _ -> Alcotest.fail "identity edit must take the noop tier");
  let counters =
    member "delta metrics" "counters"
      (member "delta result" "metrics" (member "delta output" "delta" doc))
  in
  match member "counters" "delta.noop" counters with
  | Num 1. -> ()
  | _ -> Alcotest.fail "delta.noop must be 1"

(* ------------------------------------------------------------------ *)
(* corpus / tune: the scenario-corpus recorder and the router fitter   *)
(* ------------------------------------------------------------------ *)

let bench f = Filename.concat base ("../bench/" ^ f)

let test_corpus_rows_json () =
  let ok, out = run_cli [ "corpus"; "--smoke"; "--no-times" ] in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "corpus output" out in
  (match member "corpus output" "corpus_seed" doc with
  | Num 42. -> ()
  | _ -> Alcotest.fail "default corpus_seed must be 42");
  match member "corpus output" "rows" doc with
  | Arr (row :: _ as rows) ->
      Alcotest.(check bool) "one row per (instance, method)" true
        (List.length rows >= 100);
      List.iter
        (fun k -> ignore (member "corpus row" k row))
        [ "id"; "family"; "method"; "feats"; "cost"; "proven"; "refused" ];
      Alcotest.(check bool) "--no-times redacts time_ms" false
        (has_key "time_ms" row)
  | _ -> Alcotest.fail "rows must be a non-empty array"

let test_corpus_list () =
  let ok, out = run_cli [ "corpus"; "--smoke"; "--list"; "--seed"; "7" ] in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "corpus --list output" out in
  (match member "corpus --list" "corpus_seed" doc with
  | Num 7. -> ()
  | _ -> Alcotest.fail "corpus_seed must echo --seed");
  match member "corpus --list" "instances" doc with
  | Arr (inst :: _) ->
      List.iter
        (fun k -> ignore (member "corpus instance" k inst))
        [ "id"; "family"; "seed"; "feats"; "instance" ]
  | _ -> Alcotest.fail "instances must be a non-empty array"

let test_corpus_tune_exit_codes () =
  Alcotest.(check int) "corpus bad --seed is malformed input" 2
    (run_cli_code [ "corpus"; "--seed"; "notanint"; "--list" ]);
  Alcotest.(check int) "corpus bad --deadline is malformed input" 2
    (run_cli_code [ "corpus"; "--smoke"; "--deadline"; "fast" ]);
  Alcotest.(check int) "tune on a missing rows file" 2
    (run_cli_code [ "tune"; "no_such_rows.json" ]);
  with_temp_spec "this is not json" (fun bad ->
      Alcotest.(check int) "tune on malformed rows" 2
        (run_cli_code [ "tune"; bad ]));
  Alcotest.(check int) "tune bad --margin is malformed input" 2
    (run_cli_code
       [ "tune"; bench "corpus_rows.json"; "--margin"; "lots" ]);
  Alcotest.(check int) "solve with a missing routing table" 2
    (run_cli_code
       [ "solve"; example "fig1.swf"; "--routing"; "no_such_table.json" ])

let test_tune_verdict_json () =
  let ok, out = run_cli [ "tune"; bench "corpus_rows.json"; "--json" ] in
  Alcotest.(check bool) "exit 0" true ok;
  let doc = parse_ok "tune verdict" out in
  List.iter
    (fun k -> ignore (member "tune verdict" k doc))
    [ "champion"; "challenger"; "promoted"; "margin"; "train"; "holdout" ];
  let holdout = member "tune verdict" "holdout" doc in
  List.iter
    (fun who ->
      let e = member "holdout evals" who holdout in
      List.iter
        (fun k -> ignore (member "holdout eval" k e))
        [ "instances"; "geomean_ms"; "regressions" ])
    [ "champion"; "challenger" ];
  let winner = member "tune verdict" "winner" doc in
  ignore (member "winner table" "name" winner);
  match member "winner table" "rules" winner with
  | Arr (_ :: _) -> ()
  | _ -> Alcotest.fail "winner rules must be a non-empty array"

(* The fitted-table artifact must pass its own CLI gate, and a table
   that is not the refit winner must be rejected with exit 1. *)
let test_tune_check () =
  Alcotest.(check int) "checked-in routing.json passes the gate" 0
    (run_cli_code
       [ "tune"; bench "corpus_rows.json"; "--check"; bench "routing.json" ]);
  with_temp_spec
    {|{"name":"challenger(greedy-always)","rules":[{"if":[],"route":"greedy"}]}|}
    (fun stale ->
      Alcotest.(check int) "a non-winner table fails the gate" 1
        (run_cli_code
           [ "tune"; bench "corpus_rows.json"; "--check"; stale ]))

(* tune --out dumps the winner; solve --routing must load it back and
   --explain-route must report routing under that table's name. *)
let test_routing_dump_roundtrip () =
  let table = Filename.temp_file "cli_routing" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove table)
    (fun () ->
      let ok, out =
        run_cli [ "tune"; bench "corpus_rows.json"; "--json"; "--out"; table ]
      in
      Alcotest.(check bool) "tune --out exit 0" true ok;
      let verdict = parse_ok "tune verdict" out in
      let winner_name =
        match member "winner table" "name" (member "tune verdict" "winner" verdict)
        with
        | Str s -> s
        | _ -> Alcotest.fail "winner name must be a string"
      in
      let ok, out =
        run_cli
          [
            "solve"; example "fig1.swf"; "--routing"; table; "--explain-route";
            "--json";
          ]
      in
      Alcotest.(check bool) "solve --routing exit 0" true ok;
      let doc = parse_ok "solve output" out in
      let route = member "solve output" "route" doc in
      ignore (member "route" "method" route);
      ignore (member "route" "rule" route);
      match member "route" "table" route with
      | Str t ->
          Alcotest.(check string) "routing loaded from the dumped table"
            winner_name t
      | _ -> Alcotest.fail "route.table must be a string")

let () =
  Alcotest.run "cli"
    [
      ( "solve",
        [
          Alcotest.test_case "--metrics json" `Quick test_solve_metrics_json;
          Alcotest.test_case "metrics off by default" `Quick
            test_solve_metrics_off_by_default;
          Alcotest.test_case "--metrics in text mode" `Quick
            test_solve_metrics_text_mode;
        ] );
      ( "batch",
        [
          Alcotest.test_case "--metrics json" `Quick test_batch_metrics;
          Alcotest.test_case "metrics off by default" `Quick
            test_batch_no_metrics_by_default;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "delta",
        [
          Alcotest.test_case "--json --verify --metrics" `Quick
            test_delta_metrics;
          Alcotest.test_case "noop detection" `Quick test_delta_noop;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "rows JSON shape" `Quick test_corpus_rows_json;
          Alcotest.test_case "--list JSON shape" `Quick test_corpus_list;
          Alcotest.test_case "exit codes" `Quick test_corpus_tune_exit_codes;
        ] );
      ( "tune",
        [
          Alcotest.test_case "verdict JSON shape" `Quick test_tune_verdict_json;
          Alcotest.test_case "--check gate" `Quick test_tune_check;
          Alcotest.test_case "routing dump round-trips" `Quick
            test_routing_dump_roundtrip;
        ] );
    ]
