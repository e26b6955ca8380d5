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

(* --- elaboration against the string-table elaboration ----------------- *)

(* [spec_of_raw] as it was before elaboration moved to symbols and int
   rows, kept verbatim as the reference: string tables for the names,
   [Relation.create] and [Wmodule.of_table] for the module tables. Its
   spec is a plain record with the same fields. *)
module Elaboration_reference = struct
  open Wf.Parse
  module A = Rel.Attr
  module S = Rel.Schema
  module R = Rel.Relation
  module Library = Wf.Library
  module Wmodule = Wf.Wmodule
  module Workflow = Wf.Workflow

  type spec = {
    workflow : Workflow.t;
    costs : (string * Rat.t) list;
    publics : (string * Rat.t) list;
    gamma : int;
    gamma_overrides : (string * int) list;
    raw : raw;
    attr_cost : Rat.t array;
    mod_gamma : int array;
    public_mods : (int * Rat.t) array;
  }

  (* The semantic validations that {!parse_raw_string} defers, and the
     spec's one numbering: every attribute gets its declaration index
     (first declaration of a name) and every module its position, so the
     rest of elaboration and the workflow read ids. Errors are collected
     with their lines and reported in file order, matching the behavior
     of the historic single-pass parser. *)
  type interned = {
    mod_ids : (string, int) Hashtbl.t;  (* module name -> declaration index *)
    ins : int array array;  (* module -> input attribute ids *)
    outs : int array array;  (* module -> output attribute ids *)
  }

  let semantic_errors attrs mods =
    let errs = ref [] in
    let add line fmt = Printf.ksprintf (fun m -> errs := (line, m) :: !errs) fmt in
    let attr_ids = Hashtbl.create ((2 * Array.length attrs) + 1) in
    Array.iteri
      (fun i a ->
        if Hashtbl.mem attr_ids a.a_name then add a.a_line "duplicate attribute %s" a.a_name
        else Hashtbl.add attr_ids a.a_name i)
      attrs;
    let mod_ids = Hashtbl.create ((2 * Array.length mods) + 1) in
    (* [seen.(i) = k]: module [k] already lists attribute [i]. *)
    let seen = Array.make (Array.length attrs) (-1) in
    let repeated = Array.make (Array.length attrs) (-1) in
    let sides =
      Array.mapi
        (fun k m ->
          if Hashtbl.mem mod_ids m.m_name then add m.m_line "duplicate module %s" m.m_name
          else Hashtbl.add mod_ids m.m_name k;
          let id a =
            match Hashtbl.find_opt attr_ids a with
            | Some i -> i
            | None ->
                add m.m_line "undeclared attribute %s" a;
                -1
          in
          let ins = Array.of_list (List.map id m.m_inputs) in
          let outs = Array.of_list (List.map id m.m_outputs) in
          let once i =
            if i >= 0 then
              if seen.(i) <> k then seen.(i) <- k
              else if repeated.(i) <> k then begin
                repeated.(i) <- k;
                add m.m_line "module %s lists attribute %s more than once" m.m_name
                  attrs.(i).a_name
              end
          in
          Array.iter once ins;
          Array.iter once outs;
          let n_in = Array.length ins and n_out = Array.length outs in
          List.iter
            (fun r ->
              if Array.length r.r_ins <> n_in then
                add r.r_line "row arity mismatch for inputs of %s" m.m_name;
              if Array.length r.r_outs <> n_out then
                add r.r_line "row arity mismatch for outputs of %s" m.m_name)
            m.m_rows;
          (ins, outs))
        mods
    in
    ( List.stable_sort (fun (l, _) (l', _) -> Int.compare l l') (List.rev !errs),
      { mod_ids; ins = Array.map fst sides; outs = Array.map snd sides } )

  (* [attr] gives the attribute an id stands for; the elaboration has
     proven a module's names distinct, so its schema needs no check. *)
  let build_module attr (d : raw_module) ins outs =
    let inputs = List.map attr (Array.to_list ins) and outputs = List.map attr (Array.to_list outs) in
    let booleans_only () =
      if List.exists (fun a -> A.dom a <> 2) (inputs @ outputs) then
        failwith (Printf.sprintf "module %s: builtins need boolean attributes" d.m_name)
    in
    match (d.m_fn, d.m_rows) with
    | Some _, _ :: _ -> failwith (Printf.sprintf "module %s has both fn and rows" d.m_name)
    | Some (spec, _), [] -> (
        booleans_only ();
        let ins = d.m_inputs and outs = d.m_outputs in
        match spec with
        | [ "identity" ] -> Library.identity ~name:d.m_name ~inputs:ins ~outputs:outs
        | [ "negate" ] -> Library.negate_all ~name:d.m_name ~inputs:ins ~outputs:outs
        | "constant" :: vals ->
            Library.constant ~name:d.m_name ~inputs:ins ~outputs:outs
              (Array.of_list (List.map int_of_string vals))
        | [ "majority" ] | [ "and" ] | [ "or" ] | [ "xor" ] -> (
            match (outs, List.hd spec) with
            | [ o ], "majority" -> Library.majority ~name:d.m_name ~inputs:ins ~output:o
            | [ o ], "and" -> Library.and_gate ~name:d.m_name ~inputs:ins ~output:o
            | [ o ], "or" -> Library.or_gate ~name:d.m_name ~inputs:ins ~output:o
            | [ o ], "xor" -> Library.xor_gate ~name:d.m_name ~inputs:ins ~output:o
            | _ -> failwith (Printf.sprintf "module %s: gate builtins need one output" d.m_name))
        | s :: _ -> failwith (Printf.sprintf "module %s: unknown builtin %s" d.m_name s)
        | [] -> assert false)
    | None, [] -> failwith (Printf.sprintf "module %s has no functionality" d.m_name)
    | None, rows ->
        let schema = S.of_distinct (inputs @ outputs) in
        let table =
          R.create schema (List.map (fun r -> Array.append r.r_ins r.r_outs) rows)
        in
        Wmodule.of_table ~name:d.m_name ~inputs ~outputs table

  let default_gamma raw =
    List.fold_left
      (fun acc g -> match g.g_module with None -> g.g_value | Some _ -> acc)
      2 raw.r_gammas

  let gamma_overrides_of raw =
    (* Reverse file order, so [List.assoc] sees the last override first. *)
    List.fold_left
      (fun acc g ->
        match g.g_module with None -> acc | Some m -> (m, g.g_value) :: acc)
      [] raw.r_gammas

  let spec_of_raw raw =
    let attrs = Array.of_list raw.r_attrs and mods = Array.of_list raw.r_modules in
    match semantic_errors attrs mods with
    | (line, msg) :: _, _ -> Error (Printf.sprintf "line %d: %s" line msg)
    | [], ids -> (
        if raw.r_modules = [] then Error "no modules declared"
        else
          try
            (* One [Attr.t] per declared attribute, made on first use. *)
            let made = Array.make (Array.length attrs) None in
            let attr i =
              match made.(i) with
              | Some a -> a
              | None ->
                  let a = A.make attrs.(i).a_name ~dom:attrs.(i).a_dom in
                  made.(i) <- Some a;
                  a
            in
            let wmods = Array.mapi (fun k d -> build_module attr d ids.ins.(k) ids.outs.(k)) mods in
            match
              Workflow.of_interned wmods ~n_attrs:(Array.length attrs) ~attr ~ins:ids.ins
                ~outs:ids.outs
            with
            | Error e -> Error e
            | Ok (workflow, pos, order) ->
                let attr_cost = Array.make (Array.length workflow.Workflow.names) Rat.zero in
                Array.iteri (fun d p -> if p >= 0 then attr_cost.(p) <- attrs.(d).a_cost) pos;
                (* Gammas per declared module: the default, then every
                   override in file order, so the last one wins. *)
                let gamma = default_gamma raw in
                let gammas = Array.make (Array.length mods) gamma in
                List.iter
                  (fun g ->
                    match g.g_module with
                    | None -> ()
                    | Some m -> (
                        match Hashtbl.find_opt ids.mod_ids m with
                        | Some k -> gammas.(k) <- g.g_value
                        | None -> ()))
                  raw.r_gammas;
                let at = Array.make (Array.length mods) 0 in
                Array.iteri (fun i k -> at.(k) <- i) order;
                let public_mods =
                  Array.of_list
                    (List.filter_map Fun.id
                       (List.mapi (fun k m -> Option.map (fun c -> (at.(k), c)) m.m_public)
                          raw.r_modules))
                in
                let costs = List.map (fun a -> (a.a_name, a.a_cost)) raw.r_attrs in
                let publics =
                  List.filter_map
                    (fun m -> Option.map (fun c -> (m.m_name, c)) m.m_public)
                    raw.r_modules
                in
                Ok
                  { workflow; costs; publics; gamma; gamma_overrides = gamma_overrides_of raw; raw;
                    attr_cost; mod_gamma = Array.map (fun k -> gammas.(k)) order; public_mods }
          with Failure msg | Invalid_argument msg -> Error msg)
end

(* The fixtures dune copies beside the test directory, found from the
   executable so the suite runs from any working directory. *)
let examples = Filename.concat (Filename.dirname Sys.executable_name) "../examples"

let fixture_texts =
  lazy
    (let in_dir dir =
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".swf")
       |> List.sort compare
       |> List.map (fun f ->
              In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)
     in
     Array.of_list (in_dir examples @ in_dir (Filename.concat examples "bad")))

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

(* How many mutated fixtures each differential draws: 3,000 in the test
   suite; [make fuzz-parse] sets PARSE_FUZZ_COUNT for a longer sweep. *)
let fuzz_count =
  match Sys.getenv_opt "PARSE_FUZZ_COUNT" with Some n -> int_of_string n | None -> 3000

let prop_scanner_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:fuzz_count ~name:"scanner = token-list parser on mutated fixtures"
       ~print:(Printf.sprintf "%S") gen_mutated (fun text ->
         Wf.Parse.parse_raw_string text = Reference.parse_raw_string text))

let test_reference_on_fixtures () =
  Array.iter
    (fun text ->
      Alcotest.(check bool) "same raw value" true
        (Wf.Parse.parse_raw_string text = Reference.parse_raw_string text))
    (Lazy.force fixture_texts)

(* [None] when the elaborated spec and the reference's agree field by
   field, else the first field that differs. A [Relation.t] holds a
   lazy index, so specs are not compared with [=]. *)
let spec_difference (spec : Wf.Parse.spec) (r : Elaboration_reference.spec) =
  let module W = Wf.Workflow in
  let module M = Wf.Wmodule in
  let attrs l = List.map (fun a -> (Rel.Attr.name a, Rel.Attr.dom a)) l in
  let w = spec.Wf.Parse.workflow and w' = r.Elaboration_reference.workflow in
  let same_module (m : M.t) (m' : M.t) =
    m.M.name = m'.M.name
    && attrs m.M.inputs = attrs m'.M.inputs
    && attrs m.M.outputs = attrs m'.M.outputs
    && attrs (Rel.Schema.attrs (Rel.Relation.schema m.M.table))
       = attrs (Rel.Schema.attrs (Rel.Relation.schema m'.M.table))
    && Rel.Relation.rows m.M.table = Rel.Relation.rows m'.M.table
  in
  let fields =
    [
      ("workflow names", w.W.names = w'.W.names);
      ("workflow schema", attrs (Rel.Schema.attrs w.W.schema) = attrs (Rel.Schema.attrs w'.W.schema));
      ("workflow initial", attrs w.W.initial = attrs w'.W.initial);
      ("workflow ins", w.W.ins = w'.W.ins);
      ("workflow outs", w.W.outs = w'.W.outs);
      ( "modules",
        Array.length w.W.modules = Array.length w'.W.modules
        && Array.for_all2 same_module w.W.modules w'.W.modules );
      ("attr_cost", spec.Wf.Parse.attr_cost = r.Elaboration_reference.attr_cost);
      ("mod_gamma", spec.Wf.Parse.mod_gamma = r.Elaboration_reference.mod_gamma);
      ("public_mods", spec.Wf.Parse.public_mods = r.Elaboration_reference.public_mods);
      ("costs", spec.Wf.Parse.costs = r.Elaboration_reference.costs);
      ("publics", spec.Wf.Parse.publics = r.Elaboration_reference.publics);
      ("gamma", spec.Wf.Parse.gamma = r.Elaboration_reference.gamma);
      ("gamma_overrides", spec.Wf.Parse.gamma_overrides = r.Elaboration_reference.gamma_overrides);
      ("raw", spec.Wf.Parse.raw = r.Elaboration_reference.raw);
    ]
  in
  Option.map fst (List.find_opt (fun (_, same) -> not same) fields)

let scans text fmt f =
  try Scanf.sscanf text fmt f with Scanf.Scan_failure _ | End_of_file | Failure _ -> false

(* The reference's two line-less row errors have line-numbered
   successors; every other error text is unchanged. *)
let same_error ~reference e =
  reference = e
  || String.starts_with ~prefix:"Relation.create: malformed row " reference
     && scans e "line %d: row value %d outside domain 0..%d of %s%!" (fun _ v d a ->
            a <> "" && (v < 0 || v > d))
  || scans reference "Wmodule %s@: functional dependency I -> O violated%!" (fun m ->
         String.ends_with ~suffix:(Printf.sprintf " of %s two outputs" m) e
         && scans e "line %d: rows at lines %d and %d give input" (fun l f l' -> l = l' && f < l))

(* [None] when [parse_string] and [spec_of_raw] on the raw layer both
   agree with the reference on [text], else what differs. *)
let elaboration_difference text =
  let expected = Result.bind (Reference.parse_raw_string text) Elaboration_reference.spec_of_raw in
  let from_raw = Result.bind (Wf.Parse.parse_raw_string text) Wf.Parse.spec_of_raw in
  let check what got =
    match (got, expected) with
    | Ok spec, Ok r -> Option.map (Printf.sprintf "%s: %s differs" what) (spec_difference spec r)
    | Error e, Error reference ->
        if same_error ~reference e then None
        else Some (Printf.sprintf "%s: error %S, reference %S" what e reference)
    | Ok _, Error reference -> Some (Printf.sprintf "%s: accepted, reference %S" what reference)
    | Error e, Ok _ -> Some (Printf.sprintf "%s: error %S, reference accepts" what e)
  in
  match check "parse_string" (Wf.Parse.parse_string text) with
  | Some d -> Some d
  | None -> check "spec_of_raw" from_raw

let prop_elaboration_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:fuzz_count ~name:"mutated fixtures = reference"
       ~print:(Printf.sprintf "%S") gen_mutated (fun text ->
         match elaboration_difference text with
         | None -> true
         | Some d -> QCheck2.Test.fail_report d))

(* Both perfbench pools, as generated and under three seeded
   renamings, which shuffle every declaration list and the rows. *)
let pool_texts =
  lazy
    (let module T = Perfbench_traffic.Traffic in
     List.concat_map
       (fun (_, wl) ->
         let pool = T.pool_workflows wl in
         List.map T.render pool
         @ List.concat_map
             (fun seed ->
               let rng = Svutil.Rng.create seed in
               List.map (fun w -> T.render (T.rename rng w).T.wf) pool)
             [ 1; 2; 3 ])
       T.workloads)

let test_elaboration_on_pools () =
  List.iteri
    (fun i text ->
      match elaboration_difference text with
      | None -> ()
      | Some d -> Alcotest.failf "pool text %d: %s" i d)
    (Lazy.force pool_texts)

let test_elaboration_on_fixtures () =
  Array.iteri
    (fun i text ->
      match elaboration_difference text with
      | None -> ()
      | Some d -> Alcotest.failf "fixture %d: %s" i d)
    (Lazy.force fixture_texts)

(* Every mention of a name in a parsed spec — in the raw declarations,
   the cost and gamma lists, the workflow, its modules and their tables
   — is one string: the one made at the name's first occurrence. *)
let shared_names (spec : Wf.Parse.spec) =
  let module W = Wf.Workflow in
  let module M = Wf.Wmodule in
  let raw = spec.Wf.Parse.raw and w = spec.Wf.Parse.workflow in
  let names l = List.map Rel.Attr.name l in
  let mentions =
    List.map (fun (a : Wf.Parse.raw_attr) -> a.Wf.Parse.a_name) raw.Wf.Parse.r_attrs
    @ List.concat_map
        (fun (m : Wf.Parse.raw_module) ->
          (m.Wf.Parse.m_name :: m.Wf.Parse.m_inputs) @ m.Wf.Parse.m_outputs)
        raw.Wf.Parse.r_modules
    @ List.filter_map (fun (g : Wf.Parse.raw_gamma) -> g.Wf.Parse.g_module) raw.Wf.Parse.r_gammas
    @ List.map fst spec.Wf.Parse.costs
    @ List.map fst spec.Wf.Parse.publics
    @ List.map fst spec.Wf.Parse.gamma_overrides
    @ Array.to_list w.W.names
    @ names (Rel.Schema.attrs w.W.schema)
    @ names w.W.initial
    @ List.concat_map
        (fun (m : M.t) ->
          (m.M.name :: names m.M.inputs)
          @ names m.M.outputs
          @ names (Rel.Schema.attrs (Rel.Relation.schema m.M.table)))
        (Array.to_list w.W.modules)
  in
  let first = Hashtbl.create 64 in
  List.for_all
    (fun s ->
      match Hashtbl.find_opt first s with
      | Some s' -> s' == s
      | None ->
          Hashtbl.add first s s;
          true)
    mentions

let test_names_interned () =
  let texts = Array.to_list (Lazy.force fixture_texts) @ Lazy.force pool_texts in
  List.iteri
    (fun i text ->
      match Wf.Parse.parse_string text with
      | Ok spec -> if not (shared_names spec) then Alcotest.failf "text %d: a name is copied" i
      | Error _ -> ())
    texts

(* Names past seven bytes take the table's byte-compare path, and more
   than 32 names make it grow: a chain of 60 identity modules over
   12-byte names, some sharing a 7-byte prefix with a short name. *)
let test_long_names () =
  let attr i = Printf.sprintf "attribute%03d" i and m i = Printf.sprintf "m%02d" i in
  let b = Buffer.create 4096 in
  for i = 0 to 60 do
    Printf.bprintf b "attr %s\nattr %s\n" (attr i) (String.sub (attr i) 0 7 ^ string_of_int i)
  done;
  for i = 0 to 59 do
    Printf.bprintf b "module %s private inputs %s outputs %s\nrow %s 0 -> 1\nrow %s 1 -> 0\n" (m i)
      (attr i) (attr (i + 1)) (m i) (m i)
  done;
  Printf.bprintf b "gamma %s 3\n" (m 7);
  let text = Buffer.contents b in
  (match elaboration_difference text with Some d -> Alcotest.fail d | None -> ());
  match Wf.Parse.parse_string text with
  | Ok spec ->
      Alcotest.(check bool) "names interned" true (shared_names spec);
      Alcotest.(check int) "all modules" 60 (Array.length spec.Wf.Parse.workflow.Wf.Workflow.modules)
  | Error e -> Alcotest.fail e

(* A table sent in descending order: sorting its rows stays
   O(r log r), and 20,000 of them elaborate as the reference does, also
   with a repeated row and with a conflicting row appended. *)
let test_large_reversed_table () =
  let n = 20_000 in
  let b = Buffer.create (n * 20) in
  Printf.bprintf b "attr a dom %d\nattr b dom 3\nmodule m private inputs a outputs b\n" n;
  for v = n - 1 downto 0 do
    Printf.bprintf b "row m %d -> %d\n" v (v mod 3)
  done;
  let text = Buffer.contents b in
  List.iter
    (fun text -> match elaboration_difference text with Some d -> Alcotest.fail d | None -> ())
    [ text; text ^ "row m 7 -> 1\n"; text ^ "row m 7 -> 2\n" ];
  match Wf.Parse.parse_string text with
  | Ok spec ->
      let m = spec.Wf.Parse.workflow.Wf.Workflow.modules.(0) in
      Alcotest.(check int) "all rows" n (Rel.Relation.size m.Wf.Wmodule.table)
  | Error e -> Alcotest.fail e

let test_row_errors () =
  check_err "out-of-domain value" "line 5: row value 5 outside domain 0..1 of b"
    "attr a\nattr b\nmodule m private inputs a outputs b\nrow m 0 -> 1\nrow m 1 -> 5";
  check_err "input value, wider domain" "line 4: row value -1 outside domain 0..2 of a"
    "attr a dom 3\nattr b\nmodule m private inputs a outputs b\nrow m -1 -> 1";
  check_err "two outputs" "line 5: rows at lines 4 and 5 give input 0 of m two outputs"
    "attr a\nattr b\nmodule m private inputs a outputs b\nrow m 0 -> 1\nrow m 0 -> 0";
  check_err "first conflict in file order"
    "line 7: rows at lines 5 and 7 give input 1 0 of m two outputs"
    "attr a\nattr b\nattr c\nmodule m private inputs a b outputs c\nrow m 1 0 -> 1\nrow m 0 0 -> 1\nrow m 1 0 -> 0\nrow m 0 0 -> 0\nrow m 1 0 -> 1";
  (* Duplicate rows are no conflict, and a domain error anywhere in a
     module's rows wins over its conflicts. *)
  check_err "domain before conflict" "line 7: row value 2 outside domain 0..1 of b"
    "attr a\nattr b\nmodule m private inputs a outputs b\nrow m 0 -> 1\nrow m 0 -> 1\nrow m 0 -> 0\nrow m 1 -> 2";
  (* Semantic errors still win: this arity error is reported first. *)
  check_err "semantic errors first" "line 6: row arity mismatch for outputs of m"
    "attr a\nattr b\nmodule m private inputs a outputs b\nrow m 0 -> 1\nrow m 0 -> 0\nrow m 1 -> 1 1"

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
          Alcotest.test_case "row errors name lines" `Quick test_row_errors;
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
      ( "elaboration",
        [
          Alcotest.test_case "fixtures = reference" `Quick test_elaboration_on_fixtures;
          Alcotest.test_case "renamed pools = reference" `Quick test_elaboration_on_pools;
          prop_elaboration_matches_reference;
          Alcotest.test_case "names are interned" `Quick test_names_interned;
          Alcotest.test_case "long names, table growth" `Quick test_long_names;
          Alcotest.test_case "large reversed table" `Quick test_large_reversed_table;
        ] );
    ]
