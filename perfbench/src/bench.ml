(* perfbench — the repository's end-to-end benchmark.

     bench.exe --workload corpus_scan|revalidate|serve_mixed
               --seed N --seconds S --trace 0|1 --dprle PATH

   Runs whole rounds of one seeded workload for at least S seconds,
   checks every output against answers computed apart from the
   solver, and prints one JSON object as the last line of stdout:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Human-readable notes go to stderr. See README.md. *)

module Snapshot = Telemetry.Metrics.Snapshot

let now_ns () = Telemetry.Clock.now_ns ()
let secs ns = Int64.to_float ns /. 1e9
let ms_of ns = Int64.to_float ns /. 1e6
let since t0 = Int64.sub (now_ns ()) t0

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let is_digit c = c >= '0' && c <= '9'

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile; failed ops enter as [infinity], so they
   rank above every completed op. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Resident memory of a process in MiB: the larger of VmHWM and VmRSS.
   The kernel raises VmHWM lazily, and memory the runtime releases with
   madvise lowers VmRSS without VmHWM ever having seen the peak, so the
   benchmark samples it where the heap is largest: after each op of a
   heap-compacting workload, and at the end of a run. *)
let rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> fail "cannot read %s: %s" path e
  | text ->
      let kb field =
        List.fold_left
          (fun acc l ->
            match Scanf.sscanf l "%s@: %d kB" (fun k v -> (k, v)) with
            | k, v when k = field -> max acc v
            | _ | (exception _) -> acc)
          0
          (String.split_on_char '\n' text)
      in
      float_of_int (max (kb "VmHWM") (kb "VmRSS")) /. 1024.

let peak_self = ref 0.
let note_rss () = peak_self := Float.max !peak_self (rss_mib "self")

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Layer timing                                                        *)

(* In a traced round every call the benchmark makes into a layer runs
   under a Telemetry timer of its own. The program's timers nest under
   them on the same domain-local frame stack, so each series' self time
   is exclusive and the self times of all series partition the time
   spent inside timed calls. *)
let tracing = ref false

(* [Timer.make] returns the registered timer when the name exists. *)
let call name f =
  if not !tracing then f ()
  else Telemetry.Metrics.Timer.time (Telemetry.Metrics.Timer.make ("perfbench." ^ name)) f

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Which per-layer metric a timer series' self time belongs to. *)
let layer_of name labels =
  match (name, labels) with
  | "perfbench.parse", _ -> "webapp.parse_ms"
  | "perfbench.static", _ -> "analysis.static_ms"
  | n, _ when has_prefix "analysis." n -> "analysis.static_ms"
  | ("perfbench.symexec" | "symexec.analyze"), _ -> "webapp.symexec_ms"
  | "perfbench.replay", _ -> "webapp.replay_ms"
  | ("perfbench.solve" | "symexec.solve"), _ -> "dprle.solve_ms"
  | "solver.phase", [ ("phase", "analyze") ] -> "dprle.analyze_ms"
  | "solver.phase", [ ("phase", "gci") ] -> "dprle.gci_ms"
  | "solver.phase", [ ("phase", "maximize") ] -> "dprle.maximize_ms"
  | "solver.phase", _ -> "dprle.solve_ms"
  | "automata.ops.intersect", _ -> "automata.intersect_ms"
  | "automata.dfa.determinize", _ -> "automata.determinize_ms"
  | n, _ when has_prefix "automata." n -> "automata.other_ms"
  | "store.tier.time", _ -> "query.tier_ms"
  | n, _ when has_prefix "store." n -> "store.ledger_ms"
  | _ -> "layers.other_ms"

let time_layers =
  [
    "webapp.parse_ms";
    "analysis.static_ms";
    "webapp.symexec_ms";
    "webapp.replay_ms";
    "dprle.solve_ms";
    "dprle.analyze_ms";
    "dprle.gci_ms";
    "dprle.maximize_ms";
    "automata.intersect_ms";
    "automata.determinize_ms";
    "automata.other_ms";
    "query.tier_ms";
    "store.ledger_ms";
    "layers.other_ms";
  ]

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* The work counts of one round, read from the program's own counters:
   (metric, value) pairs, identical for every round of a seed. *)
type counts = {
  solves : int;
  discharged : int;
  gci_combinations : int;
  fixpoint_iterations : int;
  sinks_pruned : int;
  states_visited : int;
  opcache_hit : int;
  opcache_miss : int;
  intern_hit : int;
  intern_miss : int;
  tier_symbolic : int;
  tier_automata : int;
  fallbacks : int;
}

let count_metrics ~paths c =
  [
    ("analysis.fixpoint_iterations", "count", float_of_int c.fixpoint_iterations);
    ("analysis.sinks_pruned", "count", float_of_int c.sinks_pruned);
    ("webapp.paths", "count", float_of_int paths);
    ("dprle.solves", "count", float_of_int c.solves);
    ("dprle.discharged", "count", float_of_int c.discharged);
    ("dprle.gci_combinations", "count", float_of_int c.gci_combinations);
    ("automata.states_visited", "count", float_of_int c.states_visited);
    ("store.opcache_hit_ratio", "ratio", ratio c.opcache_hit (c.opcache_hit + c.opcache_miss));
    ("store.intern_hit_ratio", "ratio", ratio c.intern_hit (c.intern_hit + c.intern_miss));
    ( "query.symbolic_ratio",
      "ratio",
      ratio c.tier_symbolic (c.tier_symbolic + c.tier_automata) );
    ("query.fallbacks", "count", float_of_int c.fallbacks);
  ]

(* The histogram whose sum counts gci's ε-cut combinations; every
   other count is a counter. *)
let combinations = "solver.group_combinations"

(* [value name] is one round's count for a registry name. *)
let counts_of value =
  {
    solves = value "solver.solves";
    discharged = value "analyze.discharged";
    gci_combinations = value combinations;
    fixpoint_iterations = value "analysis.fixpoint.iterations";
    sinks_pruned = value "analysis.prune.hit";
    states_visited = value "automata.states_visited";
    opcache_hit = value "store.opcache.hit";
    opcache_miss = value "store.opcache.miss";
    intern_hit = value "store.intern.hit";
    intern_miss = value "store.intern.miss";
    tier_symbolic = value "store.tier.symbolic";
    tier_automata = value "store.tier.automata";
    fallbacks = value "store.tier.fallback";
  }

let counts_of_snapshot d =
  counts_of (fun name ->
      if name = combinations then
        List.fold_left
          (fun acc (n, _, (h : Snapshot.histogram_stat)) ->
            if n = name then acc + int_of_float h.sum else acc)
          0 (Snapshot.histograms d)
      else
        List.fold_left
          (fun acc (n, _, v) -> if n = name then acc + v else acc)
          0 (Snapshot.counters d))

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

(* One op's outcome: wall time, whether it failed (ran out of its
   budget), and whether its output passed the independent check. A
   serve request also carries its client-side codec time and the
   handler time the daemon reported; in-process ops leave them 0. *)
type op = { ns : int64; failed : bool; ok : bool; codec_ns : int64; handler_ns : int64 }

let op ns ~failed ~ok = { ns; failed; ok; codec_ns = 0L; handler_ns = 0L }

type round = {
  traced : bool;
  wall_ns : int64;
  ops : op list;
  diff : Snapshot.t option;  (** metrics diff of a traced round *)
  paths : int;  (** symexec candidates, counted by the benchmark *)
}

(* Whole rounds until [seconds] have passed and at least [min_rounds]
   have run (with --trace, at least an untraced and a traced one). With
   --trace, rounds alternate untraced/traced so the two arms see the
   same warm-up and drift; the untraced ones price the tracing. *)
let run_rounds ?(min_rounds = 1) ~seconds ~trace (round : unit -> op list * int) =
  let t0 = now_ns () in
  let rec go i acc =
    let elapsed = secs (since t0) in
    if i >= min_rounds && elapsed >= float_of_int seconds && ((not trace) || i >= 2) then
      List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      tracing := traced;
      let before = if traced then Some (Snapshot.of_default ()) else None in
      let r0 = now_ns () in
      let ops, paths = round () in
      let wall_ns = since r0 in
      let diff =
        Option.map
          (fun before -> Snapshot.diff ~after:(Snapshot.of_default ()) ~before)
          before
      in
      tracing := false;
      Printf.eprintf "perfbench: round %d: %.3f s%s\n%!" i (secs wall_ns)
        (if traced then " (traced)" else "");
      go (i + 1) ({ traced; wall_ns; ops; diff; paths } :: acc)
    end
  in
  go 0 []

let all_ops rounds = List.concat_map (fun r -> r.ops) rounds

let summary rounds =
  let ops = all_ops rounds in
  ( List.for_all (fun o -> o.ok) ops,
    List.length ops,
    List.length (List.filter (fun o -> o.failed) ops) )

(* Ops per second of round time. A run's rounds all do the same work,
   so this is the run's average speed; the machine's speed swings by up
   to 1.5x in phases of seconds to minutes, and over ten seeds the
   average spread less than a median, a low quantile or the minimum of
   repeated op times did. *)
let rate rounds =
  float_of_int (List.length (all_ops rounds))
  /. secs (List.fold_left (fun acc r -> Int64.add acc r.wall_ns) 0L rounds)

let end_to_end ~tail ~setup_s ~rss rounds =
  let lat =
    List.map (fun o -> if o.failed then infinity else ms_of o.ns) (all_ops rounds)
  in
  [
    ("ops_per_s", "1/s", rate rounds);
    ("latency_p50_ms", "ms", percentile 0.5 lat);
    ("latency_tail_ms", "ms", percentile tail lat);
    ("setup_s", "s", setup_s);
    ("peak_rss_mib", "MiB", rss);
  ]

let traced_rounds rounds = List.filter (fun r -> r.traced) rounds
let untraced_rounds rounds = List.filter (fun r -> not r.traced) rounds

let mean_wall rs =
  List.fold_left (fun acc r -> acc +. secs r.wall_ns) 0. rs
  /. float_of_int (max 1 (List.length rs))

let overhead_pct rounds =
  let t = traced_rounds rounds and u = untraced_rounds rounds in
  ((mean_wall t /. mean_wall u) -. 1.) *. 100.

(* Per-layer metrics of an in-process workload: self time per op for
   every layer, the accounting remainder, and the first traced round's
   work counts. *)
let layer_metrics rounds =
  let traced = traced_rounds rounds in
  let first = List.hd traced in
  let ops = float_of_int (List.length (all_ops traced)) in
  let wall = List.fold_left (fun acc r -> Int64.add acc r.wall_ns) 0L traced in
  let self = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (name, labels, (t : Snapshot.timer_stat)) ->
          let layer = layer_of name labels in
          let prev = Option.value ~default:0L (Hashtbl.find_opt self layer) in
          Hashtbl.replace self layer (Int64.add prev t.self_ns))
        (Snapshot.timers (Option.get r.diff)))
    traced;
  let attributed = Hashtbl.fold (fun _ ns acc -> Int64.add acc ns) self 0L in
  let times =
    List.map
      (fun layer ->
        let ns = Option.value ~default:0L (Hashtbl.find_opt self layer) in
        (layer, "ms", ms_of ns /. ops))
      time_layers
  in
  times
  @ count_metrics ~paths:first.paths (counts_of_snapshot (Option.get first.diff))
  @ [
      ("api.codec_us", "us", 0.);
      ("serve.handler_ms", "ms", 0.);
      ("serve.transit_ms", "ms", 0.);
      ( "layers.unattributed_pct",
        "%",
        100. *. (1. -. (Int64.to_float attributed /. Int64.to_float wall)) );
      ("trace.overhead_pct", "%", overhead_pct rounds);
    ]

(* Set-up is timed [reps] times in every run and reported as the
   median. The machine's speed drifts over a second or two, so the
   repetitions of a run should span a few seconds: a median over a
   fraction of a second follows whatever phase it fell in. *)
let timed_setups ?(discard = ignore) ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Option.iter discard !last;
    let t0 = now_ns () in
    let v = f () in
    times := secs (since t0) :: !times;
    last := Some v
  done;
  (Option.get !last, median !times)

(* ------------------------------------------------------------------ *)
(* The webcheck pipeline, as `webcheck FILE` runs it                   *)

type verdict =
  | Vulnerable of { sink_index : int; inputs : (string * string) list; confirmed : bool }
  | Safe
  | Over_budget

let attack = Webapp.Attack.contains_quote

(* Parse, pre-pass, static fixpoint (pruning), symbolic execution, one
   solve per unpruned candidate up to the first exploit, and the
   program's own concrete confirmation — webcheck's defaults
   throughout (max-paths 4096, prepass-paths 8, static prune on). *)
let scan ?(config = Dprle.Solver.Config.default) source =
  let program =
    match call "parse" (fun () -> Webapp.Lang_parser.parse source) with
    | Ok p -> p
    | Error e -> fail "generated program does not parse: %s" (Fmt.str "%a" Webapp.Lang_parser.pp_error e)
  in
  let safe_ids =
    call "static" (fun () ->
        let decision = Analysis.Prepass.decide ~path_budget:8 program in
        if not decision.Analysis.Prepass.run_fixpoint then []
        else
          match
            Automata.Budget.run config.Dprle.Solver.Config.budget (fun () ->
                Analysis.Fixpoint.analyze_cached ~attack program)
          with
          | Ok r -> Analysis.Fixpoint.safe_sink_ids r
          | Error _ -> [])
  in
  let total_sinks = List.length (Webapp.Ast.sinks program) in
  let candidates =
    if total_sinks > 0 && List.length safe_ids = total_sinks then []
    else
      (call "symexec" (fun () ->
           Webapp.Symexec.analyze ~max_paths:4096 ~attack program))
        .Webapp.Symexec.candidates
  in
  let unpruned =
    List.filter
      (fun (q : Webapp.Symexec.query) -> not (List.mem q.sink_id safe_ids))
      candidates
  in
  let rec solve over = function
    | [] -> if over then Over_budget else Safe
    | (q : Webapp.Symexec.query) :: rest -> (
        let v = call "solve" (fun () -> Webapp.Symexec.solve ~config q) in
        let over = over || v.budget <> Webapp.Symexec.Within_budget in
        match v.assignment with
        | None -> solve over rest
        | Some a ->
            let read = Webapp.Symexec.exploit_inputs q a in
            let inputs =
              read
              @ List.filter_map
                  (fun i -> if List.mem_assoc i read then None else Some (i, "a"))
                  (Webapp.Ast.inputs program)
            in
            let confirmed =
              call "replay" (fun () ->
                  Webapp.Eval.vulnerable_run ~attack program ~inputs)
            in
            Vulnerable { sink_index = q.sink_index; inputs; confirmed })
  in
  (program, List.length candidates, solve false unpruned)

let report_wrong name verdict =
  Printf.eprintf "perfbench: wrong answer for %s: %s\n%!" name
    (match verdict with
    | Vulnerable { inputs; confirmed; _ } ->
        Printf.sprintf "vulnerable (confirmed=%b) with %s" confirmed
          (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ String.escaped v) inputs))
    | Safe -> "safe"
    | Over_budget -> "over budget")

(* A cold start, as a fresh `webcheck` process has: an empty store and
   a compacted heap, so no op pays for garbage an earlier one left. The
   heap is at its largest just before, so memory is sampled then. *)
let fresh_start () =
  note_rss ();
  Automata.Store.clear ();
  Gc.compact ()

(* The query a vulnerable verdict's inputs make the program issue,
   by concrete replay. *)
let issued_query program sink_index inputs =
  List.nth_opt (Webapp.Eval.queries program ~inputs) sink_index

(* ------------------------------------------------------------------ *)
(* corpus_scan                                                         *)

(* Tail percentiles: the highest with at least ten samples beyond it
   at the run length BENCHMARK.json sets (see README.md). *)
let corpus_tail = 0.98
let revalidate_tail = 0.92
let serve_tail = 0.95

(* The pass after which corpus_scan's memory is read. The peak depends
   on the file order, which the seed reshuffles for every pass; reading
   it after a fixed number of passes makes it the peak of a fixed set of
   orders, whatever the machine's speed. *)
let corpus_rss_rounds = 10

let corpus_scan ~seed ~seconds ~trace =
  let pages, setup_s = timed_setups ~reps:15 Gen.corpus in
  let order = Gen.rng seed "corpus" in
  let check (page : Gen.page) (program, _, verdict) =
    match verdict with
    | Vulnerable { sink_index; inputs; confirmed } ->
        page.vulnerable && confirmed
        && (match issued_query program sink_index inputs with
           | Some q -> String.contains q '\''
           | None -> false)
    | Safe -> not page.vulnerable
    | Over_budget -> false
  in
  (* cold store per pass, as each `webcheck -j1 DIR` process starts *)
  let round_no = ref 0 and rss = ref 0. in
  let round () =
    fresh_start ();
    incr round_no;
    if !round_no = corpus_rss_rounds + 1 then rss := !peak_self;
    let paths = ref 0 in
    let ops =
      List.map
        (fun (page : Gen.page) ->
          let t0 = now_ns () in
          let ((_, n, verdict) as r) = scan page.source in
          let ns = since t0 in
          paths := !paths + n;
          let ok = check page r in
          if not ok then report_wrong (page.app ^ "/" ^ page.file) verdict;
          op ns ~failed:false ~ok)
        (Gen.shuffle order pages)
    in
    (ops, !paths)
  in
  let rounds = run_rounds ~min_rounds:corpus_rss_rounds ~seconds ~trace round in
  if !round_no = corpus_rss_rounds then begin
    note_rss ();
    rss := !peak_self
  end;
  (rounds, setup_s, !rss, corpus_tail)

(* ------------------------------------------------------------------ *)
(* revalidate                                                          *)

(* The state budget the secure row runs under: it trips in well under
   a second, and state budgets count work, so the trip is
   deterministic. The generated programs run unbudgeted, like
   `webcheck FILE`; the heaviest of them materializes more states than
   this before it finishes. *)
let secure_budget = 100_000

let revalidate ~seed ~seconds ~trace =
  (* generation takes 3 ms; 1001 of them span about 3 s *)
  let programs, setup_s = timed_setups ~reps:1001 (fun () -> Gen.revalidate seed) in
  let budgeted =
    Dprle.Solver.Config.make
      ~budget:(Automata.Budget.make ~max_states:secure_budget ())
      ()
  in
  let config (p : Gen.program) =
    if p.expect = Gen.Over_budget then budgeted else Dprle.Solver.Config.default
  in
  let check (p : Gen.program) (program, _, verdict) =
    match (p.expect, verdict) with
    | Gen.Exploitable keywords, Vulnerable { sink_index; inputs; confirmed } -> (
        let witness = Option.value ~default:"" (List.assoc_opt "posted_id" inputs) in
        confirmed && String.contains witness '\''
        && witness <> ""
        && is_digit witness.[String.length witness - 1]
        &&
        match issued_query program sink_index inputs with
        | Some q -> String.contains q '\'' && List.for_all (contains q) keywords
        | None -> false)
    | Gen.Safe, Safe -> true
    | Gen.Over_budget, Over_budget -> true
    | _ -> false
  in
  let round () =
    let paths = ref 0 in
    let ops =
      List.map
        (fun (p : Gen.program) ->
          fresh_start ();
          let t0 = now_ns () in
          let ((_, n, verdict) as r) = scan ~config:(config p) p.source in
          let ns = since t0 in
          paths := !paths + n;
          let ok = check p r in
          if not ok then report_wrong p.name verdict;
          op ns ~failed:(verdict = Over_budget) ~ok)
        programs
    in
    (ops, !paths)
  in
  let rounds = run_rounds ~seconds ~trace round in
  note_rss ();
  (rounds, setup_s, !peak_self, revalidate_tail)

(* ------------------------------------------------------------------ *)
(* serve_mixed                                                         *)

type req = {
  kind : Api.Request.kind;
  expect : [ `Answer of Gen.answer | `Vulnerable of bool ];
}

(* The closed loop: at most two connections, never more than the
   machine has cores. *)
let connections = max 1 (min 2 (Domain.recommended_domain_count ()))

let run_dir = ".perfbench-run"

(* The daemon's memory grows with every fresh constant it interns, so
   its resident size is read after a fixed number of rounds (2400
   requests, under 10 s at 250 requests/s), not at the end: a faster
   daemon must not read as a bigger one. *)
let rss_rounds = 50

type daemon = { pid : int; listen : Serve.Server.listen; clients : Serve.Client.t list }

(* Daemons still running; killed and reaped on any exit, so a failed
   run leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start_daemon ~dprle ~n =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let sock = Filename.concat run_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) n) in
  (try Sys.remove sock with Sys_error _ -> ());
  let pid =
    Unix.create_process dprle [| dprle; "serve"; "unix:" ^ sock |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  let listen = Serve.Server.Unix_socket sock in
  let clients =
    List.init connections (fun _ ->
        match Serve.Client.connect listen with
        | Ok c -> c
        | Error e -> fail "cannot connect to the daemon: %s" e)
  in
  { pid; listen; clients }

let stop_daemon d =
  let c = List.hd d.clients in
  ignore
    (Serve.Client.request c
       { Api.Request.id = "bye"; kind = Api.Request.Shutdown; budget_ms = None; budget_states = None });
  List.iter Serve.Client.close d.clients;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* One request over [c], checked against its planted answer. Latency
   runs from before encoding to after decoding; codec is the client's
   encode + decode. *)
let exchange c id (r : req) =
  let t0 = now_ns () in
  let line = Api.encode_request { Api.Request.id; kind = r.kind; budget_ms = None; budget_states = None } in
  let t1 = now_ns () in
  let raw =
    match Serve.Client.send_raw c (line ^ "\n") with
    | Error e -> fail "send: %s" e
    | Ok () -> (
        match Serve.Client.recv_line c with
        | Some l -> l
        | None -> fail "daemon closed the connection")
  in
  let t2 = now_ns () in
  let resp = Api.decode_response raw in
  let t3 = now_ns () in
  let ok, handler_us =
    match resp with
    | Error _ -> (false, 0)
    | Ok resp ->
        let ok =
          resp.Api.Response.id = id
          &&
          match (r.expect, resp.payload) with
          | `Answer Gen.Sat, Api.Response.Sat _ -> true
          | `Answer Gen.Unsat, Api.Response.Unsat _ -> true
          | `Vulnerable v, Api.Response.Webcheck_report { vulnerable; _ } ->
              vulnerable > 0 = v
          | _ -> false
        in
        (ok, resp.obs.elapsed_us)
  in
  {
    ns = Int64.sub t3 t0;
    failed = false;
    ok;
    codec_ns = Int64.add (Int64.sub t1 t0) (Int64.sub t3 t2);
    handler_ns = Int64.of_int (handler_us * 1000);
  }

let scrape_counters listen =
  match Serve.Client.scrape listen with
  | Error e -> fail "metrics scrape: %s" e
  | Ok body ->
      List.filter_map
        (fun l ->
          if l = "" || l.[0] = '#' then None
          else
            match String.rindex_opt l ' ' with
            | None -> None
            | Some i ->
                let series = String.sub l 0 i in
                let name =
                  match String.index_opt series '{' with
                  | Some j -> String.sub series 0 j
                  | None -> series
                in
                Some (name, float_of_string (String.sub l (i + 1) (String.length l - i - 1))))
        (String.split_on_char '\n' body)

(* The same counts from two Prometheus scrapes of the daemon, where a
   histogram's sum is exported as NAME_sum. *)
let scraped_counts ~before ~after =
  let sum kv key = List.fold_left (fun acc (n, v) -> if n = key then acc +. v else acc) 0. kv in
  counts_of (fun name ->
      let key =
        Serve.Metrics_text.sanitize (if name = combinations then name ^ "_sum" else name)
      in
      int_of_float (Float.round (sum after key -. sum before key)))

(* A round: the twelve corpus pages and twelve fixed-system requests
   (reads), plus twenty-four fresh-constant solves/checks (writes),
   in one seeded order. *)
let serve_round_plan seed pages =
  let reads =
    List.map
      (fun (p : Gen.page) ->
        `Read
          {
            kind = Api.Request.Webcheck (Api.Request.webcheck_defaults ~program:p.source);
            expect = `Vulnerable p.vulnerable;
          })
      pages
    @ List.concat_map
        (fun (_, system, answer) ->
          let solve = Api.Request.Solve (Api.Request.solve_defaults ~system) in
          let check = Api.Request.Check system in
          List.map
            (fun kind -> `Read { kind; expect = `Answer answer })
            [ solve; solve; check; check ])
        Gen.fixed_systems
  in
  let writes =
    List.init 24 (fun i -> `Write ((if i mod 2 = 0 then Gen.Sat else Gen.Unsat), i mod 4 < 2))
  in
  Gen.shuffle (Gen.rng seed "serve-plan") (reads @ writes)

let serve_mixed ~dprle ~seed ~seconds ~trace =
  let fresh_st = Gen.rng seed "serve-fresh" in
  let fresh_n = ref 0 in
  let materialize plan =
    List.map
      (function
        | `Read r -> r
        | `Write (answer, as_solve) ->
            incr fresh_n;
            let system = Gen.fresh_system fresh_st !fresh_n answer in
            {
              kind =
                (if as_solve then Api.Request.Solve (Api.Request.solve_defaults ~system)
                 else Api.Request.Check system);
              expect = `Answer answer;
            })
      plan
  in
  let setup n =
    let pages = Gen.serve_pages (Gen.corpus ()) in
    let plan = serve_round_plan seed pages in
    let d = start_daemon ~dprle ~n in
    (* warm-up: every read once, so the measured rounds hit a warm store *)
    let c = List.hd d.clients in
    List.iteri
      (fun i -> function
        | `Read r ->
            if not (exchange c (Printf.sprintf "warm%d" i) r).ok then fail "warm-up request %d was answered wrongly" i
        | `Write _ -> ())
      plan;
    (d, plan)
  in
  let n = ref 0 in
  (* every set-up but the last only prices the start *)
  let (d, plan), setup_s =
    timed_setups ~reps:5 ~discard:(fun (d, _) -> stop_daemon d) (fun () ->
        incr n;
        setup !n)
  in
  let round_no = ref 0 and rss = ref None in
  let round () =
    incr round_no;
    let reqs = Array.of_list (materialize plan) in
    let per_conn = Array.make connections [] in
    let worker k () =
      let c = List.nth d.clients k in
      let acc = ref [] in
      Array.iteri
        (fun i r ->
          if i mod connections = k then
            acc := exchange c (Printf.sprintf "r%d-%d" !round_no i) r :: !acc)
        reqs;
      per_conn.(k) <- !acc
    in
    let threads = List.init (connections - 1) (fun k -> Thread.create (worker (k + 1)) ()) in
    worker 0 ();
    List.iter Thread.join threads;
    if !round_no = rss_rounds then rss := Some (rss_mib (string_of_int d.pid));
    (List.concat (Array.to_list per_conn), 0)
  in
  (* the daemon's counters, scraped around the first traced round *)
  let counts = ref None in
  let counted_round () =
    if !tracing && !counts = None then begin
      let before = scrape_counters d.listen in
      let r = round () in
      counts := Some (scraped_counts ~before ~after:(scrape_counters d.listen));
      r
    end
    else round ()
  in
  let rounds = run_rounds ~min_rounds:rss_rounds ~seconds ~trace counted_round in
  let rss = Option.get !rss in
  stop_daemon d;
  (rounds, setup_s, rss, !counts)

let serve_layers rounds counts =
  let reqs = all_ops (traced_rounds rounds) in
  let n = float_of_int (List.length reqs) in
  let sum f = List.fold_left (fun acc o -> acc +. Int64.to_float (f o)) 0. reqs in
  let lat = sum (fun o -> o.ns) in
  let codec = sum (fun o -> o.codec_ns) in
  let handler = sum (fun o -> o.handler_ns) in
  let wall = List.fold_left (fun acc r -> acc +. Int64.to_float r.wall_ns) 0. (traced_rounds rounds) in
  List.map (fun layer -> (layer, "ms", 0.)) time_layers
  @ count_metrics ~paths:0 counts
  @ [
      ("api.codec_us", "us", codec /. n /. 1e3);
      ("serve.handler_ms", "ms", handler /. n /. 1e6);
      ("serve.transit_ms", "ms", (lat -. codec -. handler) /. n /. 1e6);
      ( "layers.unattributed_pct",
        "%",
        100. *. (1. -. (lat /. (wall *. float_of_int connections))) );
      ("trace.overhead_pct", "%", overhead_pct rounds);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1)
  and dprle = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME corpus_scan | revalidate | serve_mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure at least S seconds of whole rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--dprle", Arg.Set_string dprle, "PATH the dprle binary (serve_mixed)");
    ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) "bench.exe [options]";
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    fail "need --seed N>=0 --seconds S>=1 --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let in_process f =
    let rounds, setup_s, rss, tail = f ~seed ~seconds ~trace in
    (rounds, if trace then layer_metrics rounds else end_to_end ~tail ~setup_s ~rss rounds)
  in
  let rounds, metrics =
    match !workload with
    | "corpus_scan" -> in_process corpus_scan
    | "revalidate" -> in_process revalidate
    | "serve_mixed" ->
        if !dprle = "" then fail "serve_mixed needs --dprle PATH";
        let rounds, setup_s, rss, counts =
          serve_mixed ~dprle:!dprle ~seed ~seconds ~trace
        in
        ( rounds,
          if trace then serve_layers rounds (Option.get counts)
          else end_to_end ~tail:serve_tail ~setup_s ~rss rounds )
    | w -> fail "unknown workload %S" w
  in
  let correct, attempted, failed = summary rounds in
  Printf.eprintf "perfbench: %s seed=%d: %d round(s), %d ops, %d failed, correct=%b\n%!"
    !workload seed (List.length rounds) attempted failed correct;
  print_result ~correct ~attempted ~failed metrics
