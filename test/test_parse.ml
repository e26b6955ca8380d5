(* Error-path coverage for Wf.Parse: every [fail] branch of the raw
   parser and every semantic rejection of [spec_of_raw] gets a test
   asserting the exact line number and message. *)

let err text =
  match Wf.Parse.parse_string text with
  | Error e -> e
  | Ok _ -> Alcotest.failf "expected a parse error for %S" text

let raw_err text =
  match Wf.Parse.parse_raw_string text with
  | Error e -> e
  | Ok _ -> Alcotest.failf "expected a raw parse error for %S" text

let check_err name expected text = Alcotest.(check string) name expected (err text)

(* --- syntax-level failures (parse_raw_string) ------------------------- *)

let test_unknown_directive () =
  check_err "unknown directive" "line 1: unknown directive bogus" "bogus x y";
  (* a gamma directive with too many tokens degenerates to this too *)
  check_err "gamma arity" "line 1: unknown directive gamma" "gamma a b c";
  Alcotest.(check string) "raw parser reports it too" "line 1: unknown directive bogus"
    (raw_err "bogus x y")

let test_bad_integer () =
  check_err "gamma" "line 1: expected an integer, got z" "gamma z";
  check_err "gamma override" "line 1: expected an integer, got z" "gamma m z";
  check_err "attr dom" "line 1: expected an integer, got q" "attr x dom q";
  check_err "row value" "line 4: expected an integer, got v"
    "attr x\nattr y\nmodule m private inputs x outputs y\nrow m v -> 1"

let test_bad_rational () =
  check_err "attr cost" "line 1: expected a rational, got zz" "attr x cost zz";
  check_err "public cost" "line 2: expected a rational, got pi"
    "attr x\nmodule m public cost pi inputs x outputs x"

let test_attr_unexpected_token () =
  check_err "attr trailing" "line 1: unexpected token blah" "attr x blah"

let test_module_shape () =
  check_err "missing visibility" "line 2: expected private or public after module name"
    "attr x\nmodule m inputs x outputs y";
  check_err "missing outputs keyword" "line 1: expected keyword outputs"
    "module m private inputs x";
  check_err "missing inputs keyword" "line 1: expected inputs ... outputs ..."
    "module m private x outputs y";
  check_err "empty inputs" "line 1: module needs inputs and outputs"
    "module m private inputs outputs y";
  check_err "empty outputs" "line 1: module needs inputs and outputs"
    "module m private inputs x outputs"

let test_row_shape () =
  check_err "unknown module" "line 1: unknown module m" "row m 0 -> 1";
  check_err "missing arrow" "line 4: expected keyword ->"
    "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 1"

let test_fn_shape () =
  check_err "unknown module" "line 1: unknown module m" "fn m and";
  check_err "missing builtin" "line 4: fn needs a builtin name"
    "attr x\nattr y\nmodule m private inputs x outputs y\nfn m"

(* --- semantic failures (spec_of_raw) ---------------------------------- *)

let test_duplicate_declarations () =
  check_err "duplicate attribute" "line 2: duplicate attribute x" "attr x\nattr x";
  check_err "duplicate module" "line 5: duplicate module m"
    "attr x\nattr y\nmodule m private inputs x outputs y\nfn m negate\nmodule m private inputs x outputs y"

let test_undeclared_attribute () =
  check_err "undeclared output" "line 2: undeclared attribute y"
    "attr x\nmodule m private inputs x outputs y\nrow m 0 -> 0";
  check_err "undeclared input" "line 1: undeclared attribute x"
    "module m private inputs x outputs y"

let test_row_arity () =
  check_err "input arity" "line 4: row arity mismatch for inputs of m"
    "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 1 -> 0";
  check_err "output arity" "line 4: row arity mismatch for outputs of m"
    "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 0 1"

let test_first_error_wins () =
  (* Semantic errors are reported in file order, matching the historic
     single-pass parser. *)
  check_err "earliest line reported" "line 2: duplicate attribute x"
    "attr x\nattr x\nmodule m private inputs x outputs nope"

let test_build_failures () =
  check_err "no modules" "no modules declared" "attr x";
  check_err "no modules at all" "no modules declared" "";
  check_err "fn and rows" "module m has both fn and rows"
    "attr x\nattr y\nmodule m private inputs x outputs y\nfn m negate\nrow m 0 -> 1";
  check_err "no functionality" "module m has no functionality"
    "attr x\nattr y\nmodule m private inputs x outputs y";
  check_err "unknown builtin" "module m: unknown builtin zzz"
    "attr x\nattr y\nmodule m private inputs x outputs y\nfn m zzz";
  check_err "gate output arity" "module m: gate builtins need one output"
    "attr x\nattr y\nattr z\nmodule m private inputs x outputs y z\nfn m and";
  check_err "non-boolean builtin" "module m: builtins need boolean attributes"
    "attr x dom 3\nattr y\nmodule m private inputs x outputs y\nfn m and";
  check_err "cycle" "workflow contains a cycle"
    "attr x\nattr y\nmodule f private inputs x outputs y\nfn f identity\nmodule g private inputs y outputs x\nfn g identity";
  check_err "two producers" "some attribute is produced by two modules"
    "attr x\nattr y\nmodule f private inputs x outputs y\nfn f identity\nmodule g private inputs x outputs y\nfn g identity"

let test_repeated_attribute () =
  (* Both forms used to escape as a line-less "Schema.of_list" error. *)
  check_err "input twice" "line 3: module m lists attribute a more than once"
    "attr a\nattr b\nmodule m private inputs a a outputs b\nfn m and";
  check_err "input and output" "line 2: module m lists attribute a more than once"
    "attr a\nmodule m private inputs a outputs a\nfn m identity";
  check_err "rows too" "line 3: module m lists attribute b more than once"
    "attr a\nattr b\nmodule m private inputs a b outputs b\nrow m 0 0 -> 0"

(* --- the raw layer keeps source locations ----------------------------- *)

let test_raw_locations () =
  let raw =
    match
      Wf.Parse.parse_raw_string
        "gamma 3\nattr x cost 2\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 1\nrow m 1 -> 0\ngamma m 5"
    with
    | Ok raw -> raw
    | Error e -> Alcotest.failf "unexpected error: %s" e
  in
  let attr name = List.find (fun (a : Wf.Parse.raw_attr) -> a.Wf.Parse.a_name = name) raw.Wf.Parse.r_attrs in
  Alcotest.(check int) "attr x line" 2 (attr "x").Wf.Parse.a_line;
  Alcotest.(check int) "attr y line" 3 (attr "y").Wf.Parse.a_line;
  let m = List.hd raw.Wf.Parse.r_modules in
  Alcotest.(check int) "module line" 4 m.Wf.Parse.m_line;
  Alcotest.(check (list int)) "row lines" [ 5; 6 ]
    (List.map (fun (r : Wf.Parse.raw_row) -> r.Wf.Parse.r_line) m.Wf.Parse.m_rows);
  Alcotest.(check (list int)) "gamma lines" [ 1; 7 ]
    (List.map (fun (g : Wf.Parse.raw_gamma) -> g.Wf.Parse.g_line) raw.Wf.Parse.r_gammas);
  Alcotest.(check int) "default gamma" 3 (Wf.Parse.default_gamma raw);
  Alcotest.(check (list (pair string int))) "overrides" [ ("m", 5) ]
    (Wf.Parse.gamma_overrides_of raw)

let test_spec_carries_raw () =
  match Wf.Parse.parse_string "attr x\nattr y\nmodule m private inputs x outputs y\nfn m negate" with
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok spec ->
      Alcotest.(check int) "one module" 1 (List.length spec.Wf.Parse.raw.Wf.Parse.r_modules);
      Alcotest.(check int) "two attrs" 2 (List.length spec.Wf.Parse.raw.Wf.Parse.r_attrs)

(* --- the offset scanner against the token-list parser ------------------ *)

(* The token-list parser [parse_raw_string] used before it became an
   offset scanner, kept verbatim as the reference. *)
module Reference = struct
  open Wf.Parse

  (* Mutable builder used only while scanning lines. *)
  type mod_builder = {
    b_line : int;
    b_name : string;
    b_public : Rat.t option;
    b_inputs : string list;
    b_outputs : string list;
    mutable b_rows : raw_row list;  (** reverse order *)
    mutable b_fn : (string list * int) option;
  }

  exception Parse_error of int * string

  let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

  let tokens line =
    let uncommented =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.split_on_char ' ' uncommented
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")

  (* Split a token list at a keyword. *)
  let split_at kw lineno toks =
    let rec go before = function
      | [] -> fail lineno "expected keyword %s" kw
      | t :: rest when t = kw -> (List.rev before, rest)
      | t :: rest -> go (t :: before) rest
    in
    go [] toks

  let int_of lineno s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail lineno "expected an integer, got %s" s

  let rat_of lineno s =
    match Rat.of_string s with
    | v -> v
    | exception _ -> fail lineno "expected a rational, got %s" s

  (* ------------------------------------------------------------------ *)
  (* Raw parsing: syntax only                                            *)
  (* ------------------------------------------------------------------ *)

  (* Fails only on token-level problems (unknown directives, malformed
     numbers, missing keywords, rows for a module that was never
     declared). Semantic issues — duplicate declarations, undeclared
     attributes, arity mismatches, wiring problems — are representable in
     the result so that {!Analysis.Wfcheck} can diagnose them; they are
     re-validated by {!spec_of_raw}. *)
  let parse_raw_string text =
    let attrs = ref [] and mods = ref [] and gammas = ref [] in
    (* Rows and fn attach to the most recent declaration of the name. *)
    let find_mod lineno name =
      match List.find_opt (fun b -> b.b_name = name) !mods with
      | Some b -> b
      | None -> fail lineno "unknown module %s" name
    in
    let handle lineno toks =
      match toks with
      | [] -> ()
      | [ "gamma"; g ] ->
          gammas := { g_line = lineno; g_module = None; g_value = int_of lineno g } :: !gammas
      | [ "gamma"; m; g ] ->
          gammas := { g_line = lineno; g_module = Some m; g_value = int_of lineno g } :: !gammas
      | "attr" :: name :: rest ->
          let rec opts dom cost = function
            | [] -> (dom, cost)
            | "dom" :: d :: rest -> opts (int_of lineno d) cost rest
            | "cost" :: c :: rest -> opts dom (rat_of lineno c) rest
            | t :: _ -> fail lineno "unexpected token %s" t
          in
          let dom, cost = opts 2 Rat.one rest in
          attrs := { a_name = name; a_dom = dom; a_cost = cost; a_line = lineno } :: !attrs
      | "module" :: name :: rest ->
          let public, rest =
            match rest with
            | "private" :: rest -> (None, rest)
            | "public" :: "cost" :: c :: rest -> (Some (rat_of lineno c), rest)
            | "public" :: rest -> (Some Rat.one, rest)
            | _ -> fail lineno "expected private or public after module name"
          in
          let before_out, outputs = split_at "outputs" lineno rest in
          let inputs =
            match before_out with
            | "inputs" :: ins -> ins
            | _ -> fail lineno "expected inputs ... outputs ..."
          in
          if inputs = [] || outputs = [] then fail lineno "module needs inputs and outputs";
          mods :=
            { b_line = lineno; b_name = name; b_public = public; b_inputs = inputs;
              b_outputs = outputs; b_rows = []; b_fn = None }
            :: !mods
      | "row" :: name :: rest ->
          let b = find_mod lineno name in
          let before, after = split_at "->" lineno rest in
          let ins = Array.of_list (List.map (int_of lineno) before) in
          let outs = Array.of_list (List.map (int_of lineno) after) in
          b.b_rows <- { r_line = lineno; r_ins = ins; r_outs = outs } :: b.b_rows
      | "fn" :: name :: spec ->
          let b = find_mod lineno name in
          if spec = [] then fail lineno "fn needs a builtin name";
          b.b_fn <- Some (spec, lineno)
      | t :: _ -> fail lineno "unknown directive %s" t
    in
    try
      String.split_on_char '\n' text
      |> List.iteri (fun i line -> handle (i + 1) (tokens line));
      let freeze b =
        { m_line = b.b_line; m_name = b.b_name; m_public = b.b_public;
          m_inputs = b.b_inputs; m_outputs = b.b_outputs;
          m_rows = List.rev b.b_rows; m_fn = b.b_fn }
      in
      Ok
        { r_attrs = List.rev !attrs;
          r_modules = List.rev_map freeze !mods;
          r_gammas = List.rev !gammas }
    with Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
end

let fixture_texts =
  lazy
    (let in_dir dir =
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".swf")
       |> List.sort compare
       |> List.map (fun f ->
              In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)
     in
     Array.of_list (in_dir "../examples" @ in_dir "../examples/bad"))

let insertions =
  [| " "; "\t"; "#"; "\r"; "\n"; "->"; " -> "; "gamma"; "attr"; "module"; "row"; "fn";
     "dom"; "cost"; "inputs"; "outputs"; "private"; "public"; " 0 "; "-1" |]

(* One random edit: delete a byte, insert a separator, keyword or
   number, duplicate a line, or truncate. *)
let mutate rng text =
  let n = String.length text in
  let at = if n = 0 then 0 else Random.State.int rng (n + 1) in
  match Random.State.int rng 10 with
  | 0 | 1 when n > 0 ->
      let i = Random.State.int rng n in
      String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | 2 | 3 | 4 | 5 ->
      let ins = insertions.(Random.State.int rng (Array.length insertions)) in
      String.sub text 0 at ^ ins ^ String.sub text at (n - at)
  | 6 | 7 ->
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let k = Random.State.int rng (Array.length lines) in
      let dup = List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) (Array.to_list lines)) in
      String.concat "\n" dup
  | 8 -> String.sub text 0 at
  | _ -> text

let gen_mutated =
  QCheck2.Gen.(
    let* file = int_range 0 (Array.length (Lazy.force fixture_texts) - 1) in
    let* seed = int_range 0 1_000_000_000 in
    let* edits = int_range 1 6 in
    let rng = Random.State.make [| seed |] in
    let text = ref (Lazy.force fixture_texts).(file) in
    for _ = 1 to edits do
      text := mutate rng !text
    done;
    return !text)

let prop_scanner_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name:"scanner = token-list parser on mutated fixtures"
       ~print:(Printf.sprintf "%S") gen_mutated (fun text ->
         Wf.Parse.parse_raw_string text = Reference.parse_raw_string text))

let test_reference_on_fixtures () =
  Array.iter
    (fun text ->
      Alcotest.(check bool) "same raw value" true
        (Wf.Parse.parse_raw_string text = Reference.parse_raw_string text))
    (Lazy.force fixture_texts)

let () =
  Alcotest.run "parse"
    [
      ( "syntax errors",
        [
          Alcotest.test_case "unknown directive" `Quick test_unknown_directive;
          Alcotest.test_case "bad integer" `Quick test_bad_integer;
          Alcotest.test_case "bad rational" `Quick test_bad_rational;
          Alcotest.test_case "attr trailing token" `Quick test_attr_unexpected_token;
          Alcotest.test_case "module shape" `Quick test_module_shape;
          Alcotest.test_case "row shape" `Quick test_row_shape;
          Alcotest.test_case "fn shape" `Quick test_fn_shape;
        ] );
      ( "semantic errors",
        [
          Alcotest.test_case "duplicate declarations" `Quick test_duplicate_declarations;
          Alcotest.test_case "undeclared attribute" `Quick test_undeclared_attribute;
          Alcotest.test_case "row arity" `Quick test_row_arity;
          Alcotest.test_case "first error wins" `Quick test_first_error_wins;
          Alcotest.test_case "build failures" `Quick test_build_failures;
          Alcotest.test_case "repeated attribute" `Quick test_repeated_attribute;
        ] );
      ( "raw layer",
        [
          Alcotest.test_case "locations" `Quick test_raw_locations;
          Alcotest.test_case "spec carries raw" `Quick test_spec_carries_raw;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "fixtures = token-list parser" `Quick test_reference_on_fixtures;
          prop_scanner_matches_reference;
        ] );
    ]
