(* Seeded input generators. Everything the program sees is made here
   from [--seed]; the make-up of a round (how many ops of each class)
   is fixed, so every seed draws the same cost multiset and only the
   string contents and the order change. *)

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The corpus generator's literal alphabet: no quote, so a quote in an
   issued query can only come from the attacker. *)
let literal_chars =
  "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 =,()<>"

let literal st n =
  String.init n (fun _ ->
      literal_chars.[Random.State.int st (String.length literal_chars)])

let lower_word st n = String.init n (fun _ -> Char.chr (97 + Random.State.int st 26))

let in_range st (lo, hi) = lo + Random.State.int st (hi - lo + 1)

(* [count] lengths spread evenly over [lo, hi]: fixed, so that every
   seed pays for the same sizes. *)
let spread_over (lo, hi) count =
  List.init count (fun i ->
      if count = 1 then lo else lo + (i * (hi - lo) / (count - 1)))

(* ------------------------------------------------------------------ *)
(* Corpus: the Fig. 11 file set                                        *)

type page = {
  app : string;
  file : string;
  source : string;
  vulnerable : bool;  (** planted: Fig. 12 rows are, filler pages are not *)
}

let is_filler name = String.length name >= 5 && String.sub name 0 5 = "page_"

(* Every Fig. 11 file except [secure], whose cost belongs to the
   revalidate workload. *)
let corpus () =
  List.concat_map
    (fun (app : Corpus.Fig11.app) ->
      Corpus.Fig11.generate app
      |> List.filter (fun (name, _) -> name <> "secure.mphp")
      |> List.map (fun (name, program) ->
             {
               app = app.name;
               file = name;
               source = Webapp.Ast.to_source program;
               vulnerable = not (is_filler name);
             }))
    Corpus.Fig11.apps

(* ------------------------------------------------------------------ *)
(* Revalidate: programs shaped like Fig. 12's [secure] row             *)

type expect =
  | Exploitable of string list  (** the re-checked keywords *)
  | Safe
  | Over_budget  (** the real [secure] row: fails under its budget *)

type program = { name : string; source : string; expect : expect }

let keywords = [ "SELECT"; "FROM"; "WHERE"; "id=nid_" ]
let tables = [ "news"; "users"; "items"; "posts"; "votes"; "carts" ]

let pattern s = Regex.Parser.parse_pattern_exn s

let guard pat e =
  Webapp.Ast.(If (Not (Preg_match (pattern pat, e)), [ Exit ], []))

(* [$q = CONST . posted_id] after a digit-suffix filter on posted_id,
   then one [preg_match] re-check of the built query per keyword. The
   constant holds every keyword, so each re-check is implied; whether
   the analyzer can discharge it is what the cliff is about. With the
   unanchored filter the sink is exploitable ('1 passes it); with the
   anchored one it is not. *)
let recheck_program st ~const_len ~rechecks ~anchored =
  let table = List.nth tables (Random.State.int st (List.length tables)) in
  let template = " SELECT * FROM " ^ table ^ " WHERE id=nid_" in
  let const = literal st (const_len - String.length template) ^ template in
  let checked = List.filteri (fun i _ -> i < rechecks) keywords in
  let filter = if anchored then "/^\\d+$/" else "/\\d+$/" in
  let program =
    Webapp.Ast.(
      [
        guard filter (Input "posted_id");
        Assign ("q", Concat (Str const, Input "posted_id"));
      ]
      @ List.map (fun kw -> guard ("/" ^ kw ^ "/") (Var "q")) checked
      @ [ Query (Var "q") ])
  in
  ( Webapp.Ast.to_source program,
    if anchored then Safe else Exploitable checked )

(* Constant lengths (whole constant, template included), spread
   evenly over each class's range; the seed picks only the characters,
   the table name and the order. The analyzer's discharge cliff sits
   between 303 and 313 characters for three re-checks; one and two
   re-checks are discharged on both sides. Four re-checks are never
   discharged (the secure row's fault), so generated programs stop at
   three: a generated op that fails would fail on a seed-dependent
   input. *)
let below_cliff = (150, 290)
let above_cliff = (320, 420)
let heavy_len = 313

(* (count, rechecks, length range, anchored) per class. *)
let revalidate_classes =
  [
    (8, 1, below_cliff, false);
    (8, 2, below_cliff, false);
    (8, 3, below_cliff, false);
    (6, 1, above_cliff, false);
    (6, 2, above_cliff, false);
    (1, 3, (heavy_len, heavy_len), false);
    (2, 3, below_cliff, true);
    (2, 3, (heavy_len, heavy_len), true);
  ]

let secure_row () =
  let row =
    List.find (fun (r : Corpus.Fig12.row) -> r.name = "secure") Corpus.Fig12.rows
  in
  {
    name = "secure";
    source = Webapp.Ast.to_source (Corpus.Fig12.program row);
    expect = Over_budget;
  }

let revalidate seed =
  let st = rng seed "revalidate" in
  let generated =
    List.concat_map
      (fun (count, rechecks, range, anchored) ->
        List.mapi
          (fun i const_len ->
            let source, expect =
              recheck_program st ~const_len ~rechecks ~anchored
            in
            {
              name =
                Printf.sprintf "k%d_len%d%s_%d" rechecks const_len
                  (if anchored then "_anchored" else "")
                  i;
              source;
              expect;
            })
          (spread_over range count))
      revalidate_classes
  in
  shuffle st (secure_row () :: generated)

(* ------------------------------------------------------------------ *)
(* Serve: a fixed read set plus fresh-constant writes                  *)

type answer = Sat | Unsat

(* Fig. 1 (sat), its anchored fix (unsat), and the Fig. 9 CI-group. *)
let fixed_systems =
  [
    ( "fig1",
      "let filter = /[\\d]+$/;\n\
       let prefix = \"nid_\";\n\
       let unsafe = /'/;\n\
       v1 <= filter;\n\
       prefix . v1 <= unsafe;\n",
      Sat );
    ( "fig1_fixed",
      "let filter = /^[\\d]+$/;\n\
       let prefix = \"nid_\";\n\
       let unsafe = /'/;\n\
       v1 <= filter;\n\
       prefix . v1 <= unsafe;\n",
      Unsat );
    ( "cigroup",
      "let ca = /^o(pp)+$/;\n\
       let cb = /^p*(qq)+$/;\n\
       let cc = /^q*r$/;\n\
       let c1 = /^op{5}q*$/;\n\
       let c2 = /^p*q{4}r$/;\n\
       va <= ca;\n\
       vb <= cb;\n\
       vc <= cc;\n\
       va . vb <= c1;\n\
       vb . vc <= c2;\n",
      Sat );
  ]

(* A fresh system: a Fig. 1 query behind a prefix constant no earlier
   request used ([n] makes it unique), so the daemon interns new
   machines. The filter decides the planted answer: unanchored admits
   a quote (sat), anchored digits do not (unsat). *)
let fresh_system st n answer =
  let prefix =
    Printf.sprintf "%s_%s%d=" (lower_word st (in_range st (4, 10)))
      (List.nth tables (Random.State.int st (List.length tables)))
      n
  in
  let filter = match answer with Sat -> "/[\\d]+$/" | Unsat -> "/^[\\d]+$/" in
  Printf.sprintf
    "let filter = %s;\nlet prefix = \"%s\";\nlet unsafe = /'/;\nv1 <= filter;\nprefix . v1 <= unsafe;\n"
    filter prefix

(* Webcheck reads: eve's eight files and utopia's four Fig. 12 rows —
   a fixed set, so every seed reads the same pages. *)
let serve_pages pages =
  List.filter
    (fun p -> p.app = "eve" || (p.app = "utopia" && p.vulnerable))
    pages
