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
  gamma_line : int array;
  gamma_mod : int array;
  public_mods : (int * Rat.t) array;
}

exception Parse_error of int * string

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

(* The spec's names, one symbol each: symbol [s] stands for the string
   [strs.(s)], allocated at the name's first occurrence and shared by
   every later mention. A name is hashed over its bytes where it lies,
   so finding one copies nothing, and a name of at most seven bytes is
   its own key: its bytes and length in one int, so finding it compares
   one int per slot. One table serves attributes, modules and builtin
   words alike. *)
type names = {
  mutable strs : string array;
  mutable count : int;
  mutable slots : int array;  (** open addressing: symbol + 1, or 0 when free *)
  mutable keys : int array;  (** per slot: its short name's key, or -1 *)
}

let rec same_from text start s k len =
  k = len
  || String.unsafe_get text (start + k) = String.unsafe_get s k
     && same_from text start s (k + 1) len

let rec bytes_le s p k acc =
  if k < 0 then acc else bytes_le s p (k - 1) ((acc lsl 8) lor Char.code (String.unsafe_get s (p + k)))

(* Bytes [p .. p + n - 1] of [s], [n <= 7], as one int (little-endian):
   a single load where eight bytes are readable. *)
let chunk s p n =
  if p + 8 <= String.length s then Int64.to_int (String.get_int64_le s p) land ((1 lsl (n lsl 3)) - 1)
  else bytes_le s p (n - 1) 0

(* Every bit of [h] reaches the low bits. *)
let fold h =
  let h = (h lxor (h lsr 32)) * 0x4cf5ad432745937f in
  h lxor (h lsr 31)

let short_key s p len = chunk s p len lor (len lsl 56)

let rec hash_from s p stop h =
  if p = stop then fold h
  else hash_from s (p + 1) stop ((h lxor Char.code (String.unsafe_get s p)) * 0x100000001b3)

let rec probe_key nm key i =
  if Array.unsafe_get nm.slots i = 0 || Array.unsafe_get nm.keys i = key then i
  else probe_key nm key ((i + 1) land (Array.length nm.slots - 1))

let rec probe_long nm text start len i =
  let s = Array.unsafe_get nm.slots i - 1 in
  if
    s < 0
    || Array.unsafe_get nm.keys i < 0
       && String.length nm.strs.(s) = len
       && same_from text start nm.strs.(s) 0 len
  then i
  else probe_long nm text start len ((i + 1) land (Array.length nm.slots - 1))

(* The slot holding [text.[start .. stop - 1]], or the free slot where
   it belongs. *)
let slot nm text start stop =
  let len = stop - start and mask = Array.length nm.slots - 1 in
  if len <= 7 then
    let key = short_key text start len in
    probe_key nm key (fold key land mask)
  else probe_long nm text start len (hash_from text start stop 0 land mask)

let names () =
  { strs = Array.make 32 ""; count = 0; slots = Array.make 64 0; keys = Array.make 64 (-1) }

(* The symbol of [text.[start .. stop - 1]], or -1. *)
let find nm text start stop = nm.slots.(slot nm text start stop) - 1

let place nm i sym str =
  let len = String.length str in
  nm.slots.(i) <- sym + 1;
  nm.keys.(i) <- (if len <= 7 then short_key str 0 len else -1)

let intern nm text start stop =
  let i = slot nm text start stop in
  let s = nm.slots.(i) in
  if s > 0 then s - 1
  else begin
    let sym = nm.count in
    if sym = Array.length nm.strs then nm.strs <- Array.append nm.strs nm.strs;
    let str =
      if start = 0 && stop = String.length text then text else String.sub text start (stop - start)
    in
    nm.strs.(sym) <- str;
    place nm i sym str;
    nm.count <- sym + 1;
    if 2 * nm.count > Array.length nm.slots then begin
      nm.slots <- Array.make (2 * Array.length nm.slots) 0;
      nm.keys <- Array.make (Array.length nm.slots) (-1);
      for t = 0 to nm.count - 1 do
        let str = nm.strs.(t) in
        place nm (slot nm str 0 (String.length str)) t str
      done
    end;
    sym
  end

let intern_string nm s = intern nm s 0 (String.length s)

(* The declarations' names as symbols, which is all elaboration reads
   of them. *)
type symbols = {
  names : names;
  attr_sym : int array;  (** attribute declaration -> symbol *)
  mod_sym : int array;  (** module declaration -> symbol *)
  in_syms : int array array;  (** module declaration -> its inputs' symbols *)
  out_syms : int array array;
  gamma_sym : int array;  (** gamma directive -> its module's symbol, -1 for the default *)
}

let symbols_of_raw raw =
  let nm = names () in
  let sym = intern_string nm in
  let syms l = Array.of_list (List.map sym l) in
  {
    names = nm;
    attr_sym = Array.of_list (List.map (fun a -> sym a.a_name) raw.r_attrs);
    mod_sym = Array.of_list (List.map (fun m -> sym m.m_name) raw.r_modules);
    in_syms = Array.of_list (List.map (fun m -> syms m.m_inputs) raw.r_modules);
    out_syms = Array.of_list (List.map (fun m -> syms m.m_outputs) raw.r_modules);
    gamma_sym =
      Array.of_list (List.map (fun g -> Option.fold ~none:(-1) ~some:sym g.g_module) raw.r_gammas);
  }

(* ------------------------------------------------------------------ *)
(* Raw parsing: syntax only                                            *)
(* ------------------------------------------------------------------ *)

(* Mutable builder used only while scanning lines. *)
type mod_builder = {
  b_line : int;
  b_sym : int;
  b_public : Rat.t option;
  b_in_syms : int array;
  b_out_syms : int array;
  mutable b_rows : raw_row list;  (** reverse order *)
  mutable b_fn : (string list * int) option;
}

let no_module =
  { b_line = 0; b_sym = -1; b_public = None; b_in_syms = [||]; b_out_syms = [||]; b_rows = [];
    b_fn = None }

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
  nm : names;
  mutable latest : mod_builder array;
      (** symbol -> its latest module declaration, or {!no_module} *)
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

(* Record the tokens of the line that starts at [p] and return where it
   ends (its newline, or the end of the text): [gap] skips separators,
   [word] extends the token that starts at [s], [comment] skips to the
   newline. The scanning helpers take every value as a parameter, so no
   closure is built per line or per token. *)
let rec gap sc p =
  if p = String.length sc.text then p
  else
    match String.unsafe_get sc.text p with
    | ' ' | '\t' -> gap sc (p + 1)
    | '\n' -> p
    | '#' -> comment sc (p + 1)
    | _ -> word sc p (p + 1)

and word sc s p =
  if p = String.length sc.text then begin
    push sc s p;
    p
  end
  else
    match String.unsafe_get sc.text p with
    | ' ' | '\t' ->
        push sc s p;
        gap sc (p + 1)
    | '\n' ->
        push sc s p;
        p
    | '#' ->
        push sc s p;
        comment sc (p + 1)
    | _ -> word sc s (p + 1)

and comment sc p =
  if p = String.length sc.text || String.unsafe_get sc.text p = '\n' then p else comment sc (p + 1)

let tok sc i = String.sub sc.text sc.starts.(i) (sc.stops.(i) - sc.starts.(i))

(* Token [i] equals [s], compared in place. *)
let tok_is sc i s =
  let start = sc.starts.(i) in
  let len = sc.stops.(i) - start in
  len = String.length s && same_from sc.text start s 0 len

(* The first token at or after [i] equal to [kw], or [sc.n]. *)
let rec find_tok sc i kw = if i >= sc.n || tok_is sc i kw then i else find_tok sc (i + 1) kw

let sym_tok sc i = intern sc.nm sc.text sc.starts.(i) sc.stops.(i)

(* The symbols of tokens [i .. j - 1], left to right. *)
let sym_toks sc i j =
  let v = Array.make (j - i) 0 in
  for k = i to j - 1 do
    v.(k - i) <- sym_tok sc k
  done;
  v

(* The strings of symbols [syms.(i ..)]. *)
let rec strings nm syms i =
  if i = Array.length syms then []
  else
    let s = nm.strs.(syms.(i)) in
    s :: strings nm syms (i + 1)

let rec all_digits text p stop =
  p = stop || match String.unsafe_get text p with '0' .. '9' -> all_digits text (p + 1) stop | _ -> false

let rec decimal text p stop acc =
  if p = stop then acc
  else decimal text (p + 1) stop ((acc * 10) + Char.code (String.unsafe_get text p) - 48)

(* An integer token is read in place when it is an optional sign and
   at most eighteen digits, which stay below [max_int]. Anything else
   (hex, underscores, malformed text) takes the copying path the values
   and messages have always come from. *)
let int_tok sc i =
  let start = sc.starts.(i) and stop = sc.stops.(i) in
  let d = match String.unsafe_get sc.text start with '-' | '+' -> start + 1 | _ -> start in
  if stop > d && stop - d <= 18 && all_digits sc.text d stop then
    let v = decimal sc.text d stop 0 in
    if String.unsafe_get sc.text start = '-' then -v else v
  else
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

(* The [dom] and [cost] options of an attribute line, from token [i]. *)
let rec attr_opts sc a_name i dom cost =
  if i = sc.n then { a_name; a_dom = dom; a_cost = cost; a_line = sc.lineno }
  else if i + 1 < sc.n && tok_is sc i "dom" then attr_opts sc a_name (i + 2) (int_tok sc (i + 1)) cost
  else if i + 1 < sc.n && tok_is sc i "cost" then attr_opts sc a_name (i + 2) dom (rat_tok sc (i + 1))
  else fail sc.lineno "unexpected token %s" (tok sc i)

(* A growable int array. *)
type ints = { mutable a : int array; mutable len : int }

let add_int v x =
  if v.len = Array.length v.a then v.a <- Array.append v.a v.a;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* Fails only on token-level problems (unknown directives, malformed
   numbers, missing keywords, rows for a module that was never
   declared). Semantic issues — duplicate declarations, undeclared
   attributes, arity mismatches, wiring problems — are representable in
   the result so that {!Analysis.Wfcheck} can diagnose them; they are
   re-validated by {!spec_of_raw}. One left-to-right pass over the
   text: each line is split into token offsets, names are interned in
   place and plain integers read in place, and the declarations come
   back with their symbols. *)
let scan text =
  let nm = names () in
  let sc =
    { text; lineno = 0; n = 0; starts = Array.make 16 0; stops = Array.make 16 0; nm;
      latest = Array.make 32 no_module }
  in
  let attrs = ref [] and attr_syms = { a = Array.make 16 0; len = 0 } in
  let mods = ref [] and n_mods = ref 0 in
  let gammas = ref [] and gamma_syms = { a = Array.make 4 0; len = 0 } in
  (* Rows and fn attach to the most recent declaration of the name. *)
  let find_mod () =
    let s = find nm text sc.starts.(1) sc.stops.(1) in
    let b = if s >= 0 && s < Array.length sc.latest then sc.latest.(s) else no_module in
    if b != no_module then b else fail sc.lineno "unknown module %s" (tok sc 1)
  in
  let handle () =
    let n = sc.n and lineno = sc.lineno in
    if n = 0 then ()
    else if tok_is sc 0 "gamma" && (n = 2 || n = 3) then begin
      let g_module, s = if n = 3 then (let s = sym_tok sc 1 in (Some nm.strs.(s), s)) else (None, -1) in
      gammas := { g_line = lineno; g_module; g_value = int_tok sc (n - 1) } :: !gammas;
      add_int gamma_syms s
    end
    else if n < 2 then fail lineno "unknown directive %s" (tok sc 0)
    else if tok_is sc 0 "attr" then begin
      let s = sym_tok sc 1 in
      attrs := attr_opts sc nm.strs.(s) 2 2 Rat.one :: !attrs;
      add_int attr_syms s
    end
    else if tok_is sc 0 "module" then begin
      let s = sym_tok sc 1 in
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
        { b_line = lineno; b_sym = s; b_public = public; b_in_syms = sym_toks sc (i + 1) o;
          b_out_syms = sym_toks sc (o + 1) n; b_rows = []; b_fn = None }
      in
      mods := b :: !mods;
      incr n_mods;
      if s >= Array.length sc.latest then
        sc.latest <- Array.append sc.latest (Array.make (Array.length nm.strs) no_module);
      sc.latest.(s) <- b
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
      b.b_fn <- Some (strings nm (sym_toks sc 2 n) 0, lineno)
    end
    else fail lineno "unknown directive %s" (tok sc 0)
  in
  let rec lines start lineno =
    sc.lineno <- lineno;
    sc.n <- 0;
    let stop = gap sc start in
    handle ();
    if stop < String.length text then lines (stop + 1) (lineno + 1)
  in
  try
    lines 0 1;
    let n = !n_mods in
    let mod_sym = Array.make n 0 and in_syms = Array.make n [||] and out_syms = Array.make n [||] in
    (* [mods] is in reverse order: module [k] is frozen before [k - 1]. *)
    let rec freeze k acc = function
      | [] -> acc
      | b :: rest ->
          mod_sym.(k) <- b.b_sym;
          in_syms.(k) <- b.b_in_syms;
          out_syms.(k) <- b.b_out_syms;
          let m =
            { m_line = b.b_line; m_name = nm.strs.(b.b_sym); m_public = b.b_public;
              m_inputs = strings nm b.b_in_syms 0; m_outputs = strings nm b.b_out_syms 0;
              m_rows = List.rev b.b_rows; m_fn = b.b_fn }
          in
          freeze (k - 1) (m :: acc) rest
    in
    let r_modules = freeze (n - 1) [] !mods in
    Ok
      ( { r_attrs = List.rev !attrs; r_modules; r_gammas = List.rev !gammas },
        { names = nm; attr_sym = Array.sub attr_syms.a 0 attr_syms.len; mod_sym; in_syms; out_syms;
          gamma_sym = Array.sub gamma_syms.a 0 gamma_syms.len } )
  with Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)

let parse_raw_string text = Result.map fst (scan text)

(* ------------------------------------------------------------------ *)
(* Elaboration: raw -> spec                                            *)
(* ------------------------------------------------------------------ *)

(* The semantic validations that {!parse_raw_string} defers, on
   symbols, and the spec's one numbering: every attribute gets its
   declaration index (first declaration of a name) and every module its
   position, so the rest of elaboration and the workflow read ids.
   Errors are reported in file order, matching the behavior of the
   historic single-pass parser: the first of the lowest line wins. *)
type interned = {
  mod_of : int array;  (** symbol -> module declaration index, or -1 *)
  ins : int array array;  (** module -> input attribute ids *)
  outs : int array array;  (** module -> output attribute ids *)
}

let semantic_errors sy attrs mods =
  let first = ref None in
  let add line fmt =
    Printf.ksprintf
      (fun m -> match !first with Some (l, _) when l <= line -> () | _ -> first := Some (line, m))
      fmt
  in
  let n_syms = sy.names.count in
  let attr_of = Array.make n_syms (-1) in
  for i = 0 to Array.length attrs - 1 do
    let s = sy.attr_sym.(i) in
    if attr_of.(s) >= 0 then add attrs.(i).a_line "duplicate attribute %s" attrs.(i).a_name
    else attr_of.(s) <- i
  done;
  let mod_of = Array.make n_syms (-1) in
  (* [seen.(i) = k]: module [k] already lists attribute [i]. *)
  let seen = Array.make (Array.length attrs) (-1) in
  let repeated = Array.make (Array.length attrs) (-1) in
  let ids m syms =
    let v = Array.make (Array.length syms) 0 in
    for j = 0 to Array.length syms - 1 do
      let i = attr_of.(syms.(j)) in
      if i < 0 then add m.m_line "undeclared attribute %s" sy.names.strs.(syms.(j));
      v.(j) <- i
    done;
    v
  in
  let once k m v =
    for j = 0 to Array.length v - 1 do
      let i = v.(j) in
      if i >= 0 then
        if seen.(i) <> k then seen.(i) <- k
        else if repeated.(i) <> k then begin
          repeated.(i) <- k;
          add m.m_line "module %s lists attribute %s more than once" m.m_name attrs.(i).a_name
        end
    done
  in
  let rec arities m n_in n_out = function
    | [] -> ()
    | r :: rows ->
        if Array.length r.r_ins <> n_in then
          add r.r_line "row arity mismatch for inputs of %s" m.m_name;
        if Array.length r.r_outs <> n_out then
          add r.r_line "row arity mismatch for outputs of %s" m.m_name;
        arities m n_in n_out rows
  in
  let ins = Array.make (Array.length mods) [||] and outs = Array.make (Array.length mods) [||] in
  for k = 0 to Array.length mods - 1 do
    let m = mods.(k) and s = sy.mod_sym.(k) in
    if mod_of.(s) >= 0 then add m.m_line "duplicate module %s" m.m_name else mod_of.(s) <- k;
    ins.(k) <- ids m sy.in_syms.(k);
    outs.(k) <- ids m sy.out_syms.(k);
    once k m ins.(k);
    once k m outs.(k);
    arities m (Array.length ins.(k)) (Array.length outs.(k)) m.m_rows
  done;
  (!first, { mod_of; ins; outs })

let ints_text v = String.concat " " (List.map string_of_int (Array.to_list v))

(* The earliest row, in file order, whose input an earlier row gave
   other outputs: the first row with that input and it. *)
let fd_violation (d : raw_module) =
  let first = Hashtbl.create 16 in
  let rec go = function
    | [] -> assert false
    | r :: rest -> (
        match Hashtbl.find_opt first r.r_ins with
        | Some f when f.r_outs <> r.r_outs -> (f, r)
        | Some _ -> go rest
        | None ->
            Hashtbl.add first r.r_ins r;
            go rest)
  in
  go d.m_rows

(* Rows of one table have one length, so {!Rel.Tuple.compare} is
   lexicographic on them: over positions [i .. k - 1] here. *)
let rec compare_from (a : int array) (b : int array) k i =
  if i = k then 0
  else
    let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_from a b k (i + 1)

(* Rows [a] in ascending order, all [k] values long. A merge sort:
   O(r log r) on any table a request sends, and an insertion sort on the
   few rows most modules have. *)
let sort_rows a k = Array.stable_sort (fun r r' -> compare_from r r' k 0) a

let check_values attrs (r : raw_row) ids (values : int array) =
  for j = 0 to Array.length ids - 1 do
    let a = attrs.(ids.(j)) and v = values.(j) in
    if v < 0 || v >= a.a_dom then
      failwith
        (Printf.sprintf "line %d: row value %d outside domain 0..%d of %s" r.r_line v (a.a_dom - 1)
           a.a_name)
  done

(* A module given by rows, on ids: semantic checks have proven the
   arities and the names distinct. Each value is checked against its
   attribute's domain in file order, then the rows are sorted and the
   duplicates dropped; rows that share an input are then adjacent, so
   one pass finds a violated FD. Both errors name their lines. *)
let table_module attrs (d : raw_module) ~inputs ~outputs ins outs =
  let n_in = Array.length ins and k = Array.length ins + Array.length outs in
  let rec check = function
    | [] -> ()
    | r :: rows ->
        check_values attrs r ins r.r_ins;
        check_values attrs r outs r.r_outs;
        check rows
  in
  check d.m_rows;
  let a = Array.make (List.length d.m_rows) [||] in
  List.iteri (fun i r -> a.(i) <- Array.append r.r_ins r.r_outs) d.m_rows;
  sort_rows a k;
  let rows = ref [] and fd_ok = ref true in
  for i = Array.length a - 1 downto 0 do
    match !rows with
    | next :: _ when compare_from a.(i) next k 0 = 0 -> ()
    | next :: _ when compare_from a.(i) next n_in 0 = 0 -> fd_ok := false
    | _ -> rows := a.(i) :: !rows
  done;
  if not !fd_ok then begin
    let f, r = fd_violation d in
    failwith
      (Printf.sprintf "line %d: rows at lines %d and %d give input %s of %s two outputs" r.r_line
         f.r_line r.r_line (ints_text r.r_ins) d.m_name)
  end;
  Wmodule.of_checked ~name:d.m_name ~inputs ~outputs
    (R.of_sorted (S.of_distinct (inputs @ outputs)) !rows)

let rec attr_list attr ids i =
  if i = Array.length ids then []
  else
    let a = attr ids.(i) in
    a :: attr_list attr ids (i + 1)

let builtin (d : raw_module) spec =
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
  | [] -> assert false

(* [attr] gives the attribute an id stands for; the elaboration has
   proven a module's names distinct, so its schema needs no check. *)
let build_module attrs attr (d : raw_module) ins outs =
  let inputs = attr_list attr ins 0 in
  let outputs = attr_list attr outs 0 in
  match (d.m_fn, d.m_rows) with
  | Some _, _ :: _ -> failwith (Printf.sprintf "module %s has both fn and rows" d.m_name)
  | Some (spec, _), [] ->
      if List.exists (fun a -> A.dom a <> 2) (inputs @ outputs) then
        failwith (Printf.sprintf "module %s: builtins need boolean attributes" d.m_name);
      builtin d spec
  | None, [] -> failwith (Printf.sprintf "module %s has no functionality" d.m_name)
  | None, _ -> table_module attrs d ~inputs ~outputs ins outs

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

let elaborate raw sy =
  let attrs = Array.of_list raw.r_attrs and mods = Array.of_list raw.r_modules in
  match semantic_errors sy attrs mods with
  | Some (line, msg), _ -> Error (Printf.sprintf "line %d: %s" line msg)
  | None, ids -> (
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
          let wmods = Array.mapi (fun k d -> build_module attrs attr d ids.ins.(k) ids.outs.(k)) mods in
          match
            Workflow.of_interned wmods ~n_attrs:(Array.length attrs) ~attr ~ins:ids.ins
              ~outs:ids.outs
          with
          | Error e -> Error e
          | Ok (workflow, pos, order) ->
              let attr_cost = Array.make (Array.length workflow.Workflow.names) Rat.zero in
              Array.iteri (fun d p -> if p >= 0 then attr_cost.(p) <- attrs.(d).a_cost) pos;
              let at = Array.make (Array.length mods) 0 in
              Array.iteri (fun i k -> at.(k) <- i) order;
              (* Gammas per declared module: the default, then every
                 override in file order, so the last one wins; each
                 with the line that set it. *)
              let gamma = default_gamma raw in
              let gammas = Array.make (Array.length mods) gamma in
              let lines = Array.map (fun m -> m.m_line) mods in
              let gamma_mod = Array.make (Array.length sy.gamma_sym) (-1) in
              List.iteri
                (fun j g ->
                  let s = sy.gamma_sym.(j) in
                  if s >= 0 && ids.mod_of.(s) >= 0 then begin
                    let k = ids.mod_of.(s) in
                    gammas.(k) <- g.g_value;
                    lines.(k) <- g.g_line;
                    gamma_mod.(j) <- at.(k)
                  end)
                raw.r_gammas;
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
                  attr_cost; mod_gamma = Array.map (fun k -> gammas.(k)) order;
                  gamma_line = Array.map (fun k -> lines.(k)) order; gamma_mod; public_mods }
        with Failure msg | Invalid_argument msg -> Error msg)

let spec_of_raw raw = elaborate raw (symbols_of_raw raw)

let parse_string text =
  match scan text with Ok (raw, sy) -> elaborate raw sy | Error e -> Error e

let parse_raw_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_raw_string text
  | exception Sys_error e -> Error e

let parse_file path = Result.bind (parse_raw_file path) spec_of_raw
