module A = Rel.Attr
module S = Rel.Schema
module R = Rel.Relation

(* ------------------------------------------------------------------ *)
(* Raw declarations                                                    *)
(* ------------------------------------------------------------------ *)

type raw_attr = { a_name : string; a_dom : int; a_cost : Rat.t; a_line : int }
type raw_row = { r_line : int; r_ins : int array; r_outs : int array }

type raw_module = {
  m_line : int;
  m_name : string;
  m_public : Rat.t option;
  m_inputs : string list;
  m_outputs : string list;
  m_rows : raw_row list;
  m_fn : (string list * int) option;
}

type raw_gamma = { g_line : int; g_module : string option; g_value : int }

type raw = {
  r_attrs : raw_attr list;
  r_modules : raw_module list;
  r_gammas : raw_gamma list;
}

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

(* ------------------------------------------------------------------ *)
(* Raw parsing: syntax only                                            *)
(* ------------------------------------------------------------------ *)

(* The line being scanned, as token offsets into the whole text: token
   [i] is [text.[starts.(i) .. stops.(i) - 1]]. A token is a maximal run
   of characters other than space and tab, and [#] ends the line. The
   offset arrays grow as needed and serve every line. *)
type scan = {
  text : string;
  mutable lineno : int;
  mutable n : int;
  mutable starts : int array;
  mutable stops : int array;
}

let push sc start stop =
  if sc.n = Array.length sc.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    sc.starts <- grow sc.starts;
    sc.stops <- grow sc.stops
  end;
  sc.starts.(sc.n) <- start;
  sc.stops.(sc.n) <- stop;
  sc.n <- sc.n + 1

(* Record the tokens of [text.[p .. stop - 1]]: [gap] skips separators,
   [word] extends the token that starts at [s]. The scanning helpers
   take every value as a parameter, so no closure is built per line or
   per token. *)
let rec gap sc stop p =
  if p < stop then
    match String.unsafe_get sc.text p with
    | ' ' | '\t' -> gap sc stop (p + 1)
    | '#' -> ()
    | _ -> word sc stop p (p + 1)

and word sc stop s p =
  if p < stop then
    match String.unsafe_get sc.text p with
    | ' ' | '\t' ->
        push sc s p;
        gap sc stop (p + 1)
    | '#' -> push sc s p
    | _ -> word sc stop s (p + 1)
  else push sc s p

let tokenize sc start stop =
  sc.n <- 0;
  gap sc stop start

let tok sc i = String.sub sc.text sc.starts.(i) (sc.stops.(i) - sc.starts.(i))

let rec same_from text start s k len =
  k = len
  || String.unsafe_get text (start + k) = String.unsafe_get s k
     && same_from text start s (k + 1) len

(* Token [i] equals [s], compared in place. *)
let tok_is sc i s =
  let start = sc.starts.(i) in
  let len = sc.stops.(i) - start in
  len = String.length s && same_from sc.text start s 0 len

(* The first token at or after [i] equal to [kw], or [sc.n]. *)
let rec find_tok sc i kw = if i >= sc.n || tok_is sc i kw then i else find_tok sc (i + 1) kw

(* Tokens [i .. j - 1]. *)
let rec toks sc i j = if i >= j then [] else tok sc i :: toks sc (i + 1) j

let int_tok sc i =
  let s = tok sc i in
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail sc.lineno "expected an integer, got %s" s

(* Integer tokens [i .. j - 1], read left to right. *)
let int_toks sc i j =
  let v = Array.make (j - i) 0 in
  for k = i to j - 1 do
    v.(k - i) <- int_tok sc k
  done;
  v

let rat_tok sc i =
  let s = tok sc i in
  match Rat.of_string s with
  | v -> v
  | exception _ -> fail sc.lineno "expected a rational, got %s" s

(* Fails only on token-level problems (unknown directives, malformed
   numbers, missing keywords, rows for a module that was never
   declared). Semantic issues — duplicate declarations, undeclared
   attributes, arity mismatches, wiring problems — are representable in
   the result so that {!Analysis.Wfcheck} can diagnose them; they are
   re-validated by {!spec_of_raw}. One left-to-right pass over the
   text: each line is split into token offsets, and only names and
   numbers are copied out. *)
let parse_raw_string text =
  let sc = { text; lineno = 0; n = 0; starts = Array.make 16 0; stops = Array.make 16 0 } in
  let attrs = ref [] and mods = ref [] and gammas = ref [] in
  (* Rows and fn attach to the most recent declaration of the name. *)
  let by_name : (string, mod_builder) Hashtbl.t = Hashtbl.create 16 in
  let find_mod () =
    let name = tok sc 1 in
    match Hashtbl.find_opt by_name name with
    | Some b -> b
    | None -> fail sc.lineno "unknown module %s" name
  in
  let handle () =
    let n = sc.n and lineno = sc.lineno in
    if n = 0 then ()
    else if tok_is sc 0 "gamma" && (n = 2 || n = 3) then
      let g_module = if n = 3 then Some (tok sc 1) else None in
      gammas := { g_line = lineno; g_module; g_value = int_tok sc (n - 1) } :: !gammas
    else if n < 2 then fail lineno "unknown directive %s" (tok sc 0)
    else if tok_is sc 0 "attr" then begin
      let rec opts i dom cost =
        if i = n then (dom, cost)
        else if i + 1 < n && tok_is sc i "dom" then opts (i + 2) (int_tok sc (i + 1)) cost
        else if i + 1 < n && tok_is sc i "cost" then opts (i + 2) dom (rat_tok sc (i + 1))
        else fail lineno "unexpected token %s" (tok sc i)
      in
      let a_name = tok sc 1 in
      let dom, cost = opts 2 2 Rat.one in
      attrs := { a_name; a_dom = dom; a_cost = cost; a_line = lineno } :: !attrs
    end
    else if tok_is sc 0 "module" then begin
      let name = tok sc 1 in
      let public, i =
        if n > 2 && tok_is sc 2 "private" then (None, 3)
        else if n > 4 && tok_is sc 2 "public" && tok_is sc 3 "cost" then
          (Some (rat_tok sc 4), 5)
        else if n > 2 && tok_is sc 2 "public" then (Some Rat.one, 3)
        else fail lineno "expected private or public after module name"
      in
      let o = find_tok sc i "outputs" in
      if o = n then fail lineno "expected keyword outputs";
      if not (o > i && tok_is sc i "inputs") then fail lineno "expected inputs ... outputs ...";
      if o = i + 1 || o = n - 1 then fail lineno "module needs inputs and outputs";
      let b =
        { b_line = lineno; b_name = name; b_public = public; b_inputs = toks sc (i + 1) o;
          b_outputs = toks sc (o + 1) n; b_rows = []; b_fn = None }
      in
      mods := b :: !mods;
      Hashtbl.replace by_name name b
    end
    else if tok_is sc 0 "row" then begin
      let b = find_mod () in
      let a = find_tok sc 2 "->" in
      if a = n then fail lineno "expected keyword ->";
      let ins = int_toks sc 2 a in
      let outs = int_toks sc (a + 1) n in
      b.b_rows <- { r_line = lineno; r_ins = ins; r_outs = outs } :: b.b_rows
    end
    else if tok_is sc 0 "fn" then begin
      let b = find_mod () in
      if n = 2 then fail lineno "fn needs a builtin name";
      b.b_fn <- Some (toks sc 2 n, lineno)
    end
    else fail lineno "unknown directive %s" (tok sc 0)
  in
  let len = String.length text in
  let rec line_end p = if p < len && String.unsafe_get text p <> '\n' then line_end (p + 1) else p in
  let rec lines start lineno =
    let stop = line_end start in
    sc.lineno <- lineno;
    tokenize sc start stop;
    handle ();
    if stop < len then lines (stop + 1) (lineno + 1)
  in
  try
    lines 0 1;
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

(* ------------------------------------------------------------------ *)
(* Elaboration: raw -> spec                                            *)
(* ------------------------------------------------------------------ *)

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

let parse_string text = Result.bind (parse_raw_string text) spec_of_raw

let parse_raw_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_raw_string text
  | exception Sys_error e -> Error e

let parse_file path = Result.bind (parse_raw_file path) spec_of_raw
