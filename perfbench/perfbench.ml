(* The simq benchmark: three seeded workloads driven through simq's
   public entry points. Every answer is checked against an oracle
   outside the timed region. An untraced run (--trace 0) reports the
   end-to-end metrics; a traced run (--trace 1) reports the per-layer
   split, read from the benchmark's own timings around public calls and
   from the operator trees that Engine.exec ?profile and the
   [profile <spec>] protocol request return. README.md in this
   directory names every metric and the end-to-end metric it moves. *)

module J = Simq_obs.Json
module Clock = Simq_obs.Clock
module Trace = Simq_obs.Trace
module Profile = Simq_obs.Profile
module Relation = Simq_storage.Relation
module Io_stats = Simq_storage.Io_stats
module Dataset = Simq_tsindex.Dataset
module Kindex = Simq_tsindex.Kindex
module Ql = Simq_tsindex.Ql
module Seqscan = Simq_tsindex.Seqscan
module Engine = Simq_serve.Engine
module Protocol = Simq_serve.Protocol
module Client = Simq_serve.Stress.Client
module Pool = Simq_parallel.Pool

(* --- timing and statistics ---------------------------------------------- *)

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.elapsed_s t0)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let quantile l q = Simq_serve.Stress.quantile (sorted l) q
let median l = quantile l 0.5

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b

(* --- host speed ---------------------------------------------------------- *)

(* The benchmark runs on a shared host whose speed drifts whatever the
   program does: by 15% from one 15-s window to the next, by up to 80%
   within one run, and by 2 to 8 times over an hour. CPU time drifts
   with wall time, so it is no way out. So each timed region is
   interleaved with bursts of a fixed reference kernel that calls no simq
   code, and each end-to-end time is scaled by [nominal_ms / k], where
   [k] is the median kernel time over the bursts within [window_s] of
   the timed work. A scaled time reads as milliseconds on a host where
   the kernel takes [nominal_ms]. A change to simq moves the scaled time
   as it moves the raw one; a change in host speed moves simq and the
   kernel alike and cancels out. The raw times are printed as well. *)
module Host = struct
  let nominal_ms = 4.
  let window_s = 1.
  let origin = Clock.now_ns ()

  (* Seconds since the benchmark started. *)
  let now () = Clock.elapsed_s origin

  let rows = 65536
  let width = 128

  (* 64 MB of series-like rows, more than simq's own data on any
     workload, off the OCaml heap so that heap_live_mb does not see it. *)
  let table =
    lazy
      (let a = Bigarray.(Array1.create float64 c_layout (rows * width)) in
       for i = 0 to (rows * width) - 1 do
         a.{i} <- float_of_int (i * 7919 mod 1009) /. 1009.
       done;
       a)

  (* Every kernel result is added here, so no kernel work is dead. *)
  let sink = ref 0.

  let distance
      (a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
      row =
    let d = ref 0. in
    for j = 0 to width - 1 do
      let x = a.{(row * width) + j} -. a.{j} in
      d := !d +. (x *. x)
    done;
    !d

  (* The kinds of work simq's query paths do, in one fixed dose: short
     lived allocation, sorting and hashing; a sequential scan of 2048
     rows; distances to 2048 rows drawn from [seed], most of them out of
     cache. *)
  let kernel a ~seed =
    let st = Random.State.make [| 3 |] in
    let l =
      List.init 4000 (fun _ -> Random.State.float st 1.)
      |> List.sort Float.compare
    in
    let h = Hashtbl.create 64 in
    List.iteri
      (fun i x -> if i mod 7 = 0 then Hashtbl.replace h (i mod 500) x)
      l;
    let acc =
      ref (List.fold_left ( +. ) 0. l +. float_of_int (Hashtbl.length h))
    in
    for row = 1 to 2047 do
      acc := !acc +. distance a row
    done;
    let lcg = ref seed in
    for _ = 1 to 2048 do
      lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
      acc := !acc +. distance a (!lcg mod rows)
    done;
    !acc

  (* (time since the start, kernel seconds) of every kernel run, newest
     first, and the wall time the bursts took. *)
  let runs = ref []
  let spent_s = ref 0.

  (* Three kernel runs. With a pool of [d] domains, each run is [d]
     copies of the kernel at once, one per domain, and counts as long as
     the slowest: parallel work waits for the slower core. *)
  let burst () =
    let t0 = Clock.now_ns () in
    let a = Lazy.force table in
    let d = Pool.default_domains () in
    for _ = 1 to 3 do
      let at = now () in
      let seed = List.length !runs * 8 in
      let helpers =
        List.init (d - 1) (fun i ->
            Domain.spawn (fun () ->
                time (fun () -> kernel a ~seed:(seed + i + 1))))
      in
      let acc, s = time (fun () -> kernel a ~seed) in
      let s =
        List.fold_left
          (fun s h ->
            let acc', s' = Domain.join h in
            sink := !sink +. acc';
            Float.max s s')
          s helpers
      in
      sink := !sink +. acc;
      runs := (at, s) :: !runs
    done;
    spent_s := !spent_s +. Clock.elapsed_s t0

  let kernel_ms () = 1000. *. median (List.map snd !runs)

  (* The factor that takes a raw time of work done at [at] to a scaled
     one: from the kernel runs within [window_s], or from all of them if
     none is that close. *)
  let scale_at at =
    let near =
      List.filter_map
        (fun (t, s) -> if Float.abs (t -. at) <= window_s then Some s else None)
        !runs
    in
    let k = if near = [] then kernel_ms () else 1000. *. median near in
    nominal_ms /. k
end

(* --- queries and answers ------------------------------------------------- *)

type op = Range | Nearest | Pairs

let op_of_spec spec =
  let starts p =
    String.length spec >= String.length p
    && String.sub spec 0 (String.length p) = p
  in
  if starts "RANGE" then Range
  else if starts "NEAREST" then Nearest
  else if starts "PAIRS" then Pairs
  else invalid_arg ("perfbench: unknown query kind: " ^ spec)

(* What one executed query returned, whether it ran in process or came
   back over the line protocol. The results are kept as JSON text: a
   run holds thousands of answers, and as trees they would grow the
   heap that simq's own collections must mark while the run goes on. *)
type answer = {
  ok : bool;
  results : string;
  path : string option;
  decision : string option;
  error : string;
}

type sample = {
  spec : string;
  op : op;
  at : float;  (** when it was sent, in {!Host.now} seconds *)
  latency_s : float;
  answer : answer;
  exec_ms : float;  (** served: the response's [duration_ms] *)
  profile : J.t option;  (** the operator tree of a traced query *)
}

let failure error =
  { ok = false; results = "null"; path = None; decision = None; error }

let answer_of_exec = function
  | Ok (o : Engine.outcome) ->
    {
      ok = true;
      results = J.to_string o.Engine.results;
      path = o.Engine.path;
      decision = o.Engine.decision;
      error = "";
    }
  | Error e -> failure (Simq_cli.message e)

(* A response line: the answer, the server-side [duration_ms] and the
   operator tree of a [profile] request. *)
let answer_of_response line =
  let str name j = Option.bind (J.member name j) J.string_of in
  match J.parse line with
  | Error m -> (failure ("unparseable response: " ^ m), nan, None)
  | Ok j ->
    let ok = str "outcome" j = Some "ok" in
    ( {
        ok;
        results =
          J.to_string (Option.value (J.member "results" j) ~default:J.Null);
        path = str "path" j;
        decision = str "decision" j;
        error =
          (if ok then ""
           else Option.value (str "error" j) ~default:"error response");
      },
      Option.value
        (Option.bind (J.member "duration_ms" j) J.number)
        ~default:nan,
      J.member "profile" j )

let results_json text = Result.value (J.parse text) ~default:J.Null

let rows results =
  Option.value (J.arr (results_json results)) ~default:[]
  |> List.map (fun row ->
         let num name =
           Option.value (Option.bind (J.member name row) J.number) ~default:nan
         in
         (int_of_float (num "id"), num "distance"))

(* --- result reporting ---------------------------------------------------- *)

type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

type outcome = {
  attempted : int;
  failed : int;
  mismatches : string list;  (** first few oracle mismatches, for stderr *)
  metrics : metric list;  (** the JSON line: end-to-end or per-layer *)
  extra : metric list;  (** printed for people, not in the JSON line *)
}

let print_metric m =
  Printf.printf "  %-34s %14.6g %-6s %s\n" m.name m.value m.unit m.note

(* --- per-query operator trees -------------------------------------------- *)

(* Per-query totals of every operator node, by name; the per-shard
   nodes [shard.<i>] fold into one [shard.part]. *)
type node_totals = {
  mutable wall_ms : float;
  mutable pages : float;
  mutable candidates : float;
  mutable rows_in : float;
  mutable rows_out : float;
  mutable early_abandon : float;
  mutable details : string list;
  mutable n : int;
}

let node_totals profile =
  let table = Hashtbl.create 16 in
  let get name =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None ->
      let t =
        {
          wall_ms = 0.;
          pages = 0.;
          candidates = 0.;
          rows_in = 0.;
          rows_out = 0.;
          early_abandon = 0.;
          details = [];
          n = 0;
        }
      in
      Hashtbl.add table name t;
      t
  in
  let rec walk node =
    let field f get default =
      Option.value (Option.bind (J.member f node) get) ~default
    in
    let num f = field f J.number 0. in
    let name = field "op" J.string_of "" in
    let name =
      if String.length name > 6 && String.sub name 0 6 = "shard."
         && name <> "shard.scatter" && name <> "shard.gather"
      then "shard.part"
      else name
    in
    let t = get name in
    t.wall_ms <- t.wall_ms +. num "time_ms";
    t.pages <- t.pages +. num "pages";
    t.candidates <- t.candidates +. num "candidates";
    t.rows_in <- t.rows_in +. num "rows_in";
    t.rows_out <- t.rows_out +. num "rows_out";
    t.early_abandon <- t.early_abandon +. num "early_abandon";
    (match Option.bind (J.member "detail" node) J.string_of with
    | Some d -> t.details <- d :: t.details
    | None -> ());
    t.n <- t.n + 1;
    List.iter walk (field "children" J.arr [])
  in
  (match Option.bind profile (J.member "roots") with
  | Some roots -> List.iter walk (Option.value (J.arr roots) ~default:[])
  | None -> ());
  table

(* --- the per-layer accumulator ------------------------------------------- *)

(* Every per-layer metric, in BENCHMARK.json order. A layer a workload
   bypasses reads 0. *)
let layer_metrics =
  [
    ("storage.load_s", "s");
    ("storage.page_reads_per_query", "count");
    ("storage.cache_hit_ratio", "ratio");
    ("dataset.build_s", "s");
    ("dataset.prepare_query_us", "us");
    ("kindex.build_s", "s");
    ("kindex.descent_ms", "ms");
    ("kindex.node_accesses_per_query", "count");
    ("kindex.candidates_per_query", "count");
    ("kindex.postfilter_ms", "ms");
    ("kindex.precision", "ratio");
    ("kindex.nearest_ms", "ms");
    ("kindex.nn_expansions_per_query", "count");
    ("sketch.build_s", "s");
    ("sketch.coarse_ms", "ms");
    ("sketch.segment_ms", "ms");
    ("sketch.coarse_dismiss_ratio", "ratio");
    ("sketch.segment_dismiss_ratio", "ratio");
    ("shard.exec_ms", "ms");
    ("shard.scatter_ms", "ms");
    ("shard.gather_ms", "ms");
    ("shard.fanout_mean", "count");
    ("shard.pruned_ratio", "ratio");
    ("join.pairs_ms", "ms");
    ("join.comparisons_per_query", "count");
    ("join.rejected_ratio", "ratio");
    ("seqscan.range_ms", "ms");
    ("seqscan.early_abandon_ratio", "ratio");
    ("planner.scan_share", "ratio");
    ("admission.degrade_share", "ratio");
    ("admission.admit_us", "us");
    ("ql.parse_us", "us");
    ("engine.exec_ms", "ms");
    ("serve.exec_ms", "ms");
    ("serve.outside_exec_ms", "ms");
    ("protocol.parse_us", "us");
    ("protocol.encode_us", "us");
    ("trace.throughput_qps", "1/s");
    ("trace.overhead_ratio", "ratio");
  ]

(* Timings are kept per call and reported as medians (quartiles in the
   note); counts and ratios are stored directly. *)
type layers = {
  timings : (string, float list ref) Hashtbl.t;
  values : (string, float) Hashtbl.t;
}

let new_layers () = { timings = Hashtbl.create 32; values = Hashtbl.create 32 }

let add_timing l name v =
  match Hashtbl.find_opt l.timings name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add l.timings name (ref [ v ])

let set_value l name v = Hashtbl.replace l.values name v

let layer_outcome l =
  List.map
    (fun (name, unit) ->
      match Hashtbl.find_opt l.values name with
      | Some v -> metric name unit v
      | None -> (
        match Hashtbl.find_opt l.timings name with
        | Some r ->
          let xs = !r in
          metric name unit (median xs)
            ~note:
              (Printf.sprintf "median of %d, quartiles %.4g..%.4g"
                 (List.length xs) (quantile xs 0.25) (quantile xs 0.75))
        | None -> metric name unit 0. ~note:"(layer not exercised)"))
    layer_metrics

(* Layer metrics read off the operator trees of the traced queries. *)
let profile_layers l samples =
  let trees = List.map (fun s -> (s, node_totals s.profile)) samples in
  let node tbl name = Hashtbl.find_opt tbl name in
  let timing metric_name node_name =
    List.iter
      (fun (_, tbl) ->
        match node tbl node_name with
        | Some t -> add_timing l metric_name t.wall_ms
        | None -> ())
      trees
  in
  let sum op node_name f =
    List.fold_left
      (fun (acc, n) (s, tbl) ->
        if s.op <> op then (acc, n)
        else
          match node tbl node_name with
          | Some t -> (acc +. f t, n + 1)
          | None -> (acc, n))
      (0., 0) trees
  in
  let per_query op node_name f =
    let total, n = sum op node_name f in
    ratio total (float_of_int n)
  in
  timing "kindex.descent_ms" "kindex.descent";
  timing "kindex.postfilter_ms" "kindex.postfilter";
  timing "kindex.nearest_ms" "kindex.nearest";
  timing "sketch.coarse_ms" "sketch.coarse";
  timing "sketch.segment_ms" "sketch.segment";
  timing "shard.scatter_ms" "shard.scatter";
  timing "shard.gather_ms" "shard.gather";
  timing "join.pairs_ms" "join.scan";
  timing "seqscan.range_ms" "seqscan.range";
  List.iter
    (fun (_, tbl) ->
      match node tbl "admit" with
      | Some t -> add_timing l "admission.admit_us" (t.wall_ms *. 1000.)
      | None -> ())
    trees;
  (* Index range work: the monolithic descent, or the per-shard
     traversals of a sharded engine. *)
  let descent = "kindex.descent" and part = "shard.part" in
  let pages_of name = per_query Range name (fun t -> t.pages) in
  let cands_of name = per_query Range name (fun t -> t.candidates) in
  let mono = snd (sum Range descent (fun _ -> 0.)) > 0 in
  set_value l "kindex.node_accesses_per_query"
    (if mono then pages_of descent else pages_of part);
  set_value l "kindex.candidates_per_query"
    (if mono then per_query Range descent (fun t -> t.rows_out)
     else cands_of part);
  set_value l "kindex.precision"
    (if mono then
       ratio
         (fst (sum Range "kindex.postfilter" (fun t -> t.rows_out)))
         (fst (sum Range descent (fun t -> t.rows_out)))
     else
       ratio
         (fst (sum Range part (fun t -> t.rows_out)))
         (fst (sum Range part (fun t -> t.candidates))));
  set_value l "kindex.nn_expansions_per_query"
    (if snd (sum Nearest "kindex.nearest" (fun _ -> 0.)) > 0 then
       per_query Nearest "kindex.nearest" (fun t -> t.pages)
     else per_query Nearest part (fun t -> t.pages));
  let dismiss name =
    let rin = fst (sum Range name (fun t -> t.rows_in)) in
    let rout = fst (sum Range name (fun t -> t.rows_out)) in
    ratio (rin -. rout) rin
  in
  set_value l "sketch.coarse_dismiss_ratio" (dismiss "sketch.coarse");
  set_value l "sketch.segment_dismiss_ratio" (dismiss "sketch.segment");
  (* Scatter accounting from the per-shard children: a pruned shard's
     node carries the detail "pruned". *)
  let scattered =
    List.filter_map
      (fun (_, tbl) ->
        match node tbl part with
        | Some t ->
          let pruned =
            List.length (List.filter (fun d -> d = "pruned") t.details)
          in
          Some
            (float_of_int (t.n - pruned), float_of_int pruned, float_of_int t.n)
        | None -> None)
      trees
  in
  set_value l "shard.fanout_mean"
    (mean (List.map (fun (f, _, _) -> f) scattered));
  set_value l "shard.pruned_ratio"
    (ratio
       (List.fold_left (fun a (_, p, _) -> a +. p) 0. scattered)
       (List.fold_left (fun a (_, _, n) -> a +. n) 0. scattered));
  set_value l "join.comparisons_per_query"
    (per_query Pairs "join.scan" (fun t -> t.candidates));
  (let c = fst (sum Pairs "join.scan" (fun t -> t.candidates)) in
   let p = fst (sum Pairs "join.scan" (fun t -> t.rows_out)) in
   set_value l "join.rejected_ratio" (ratio (c -. p) c));
  (let c = fst (sum Range "seqscan.compute" (fun t -> t.candidates)) in
   let e = fst (sum Range "seqscan.compute" (fun t -> t.early_abandon)) in
   set_value l "seqscan.early_abandon_ratio" (ratio e c));
  let ranges = List.filter (fun (s, _) -> s.op = Range) trees in
  let share p =
    let count l = float_of_int (List.length l) in
    ratio (count (List.filter p ranges)) (count ranges)
  in
  set_value l "planner.scan_share"
    (share (fun (_, tbl) ->
         match node tbl "plan" with
         | Some t ->
           List.exists
             (fun d -> String.length d >= 4 && String.sub d 0 4 = "scan")
             t.details
         | None -> false));
  set_value l "admission.degrade_share"
    (share (fun (s, _) -> s.answer.decision = Some "degrade_to_scan"))

(* --- oracles ------------------------------------------------------------- *)

let close a b = Float.abs (a -. b) <= 1e-6

(* Lemma 1 parity against the time-domain sequential-scan reference:
   the same ids, distances within 1e-6 (the index computes them in the
   frequency domain). NEAREST compares the k smallest distances. *)
let check_against_reference ~dataset ~noise (s : sample) =
  match Ql.parse s.spec with
  | Error m -> Some ("unparseable spec: " ^ m)
  | Ok (Ql.Range { spec; query; epsilon; _ }) -> (
    match Engine.resolve_query_series dataset spec ~name:query ~noise with
    | Error _ -> Some "unresolvable query series"
    | Ok series ->
      let want = Seqscan.reference ~spec dataset ~query:series ~epsilon in
      let got = rows s.answer.results in
      let ids = List.map (fun ((e : Dataset.entry), _) -> e.Dataset.id) in
      if ids want <> List.map fst got then
        Some "range ids differ from the sequential-scan reference"
      else if not (List.for_all2 (fun (_, d) (_, d') -> close d d') want got)
      then Some "range distances differ from the reference"
      else None)
  | Ok (Ql.Nearest { k; spec; query; _ }) -> (
    match Engine.resolve_query_series dataset spec ~name:query ~noise with
    | Error _ -> Some "unresolvable query series"
    | Ok series ->
      let all =
        Seqscan.reference ~spec dataset ~query:series ~epsilon:infinity
      in
      let want =
        List.map snd all |> sorted |> Array.to_list
        |> List.filteri (fun i _ -> i < k)
      in
      let got = List.map snd (rows s.answer.results) in
      if List.length want <> List.length got
         || not (List.for_all2 close want got)
      then Some "nearest distances differ from the reference"
      else None)
  | Ok (Ql.Pairs _) -> Some "no reference for PAIRS on this workload"

let id_set results = List.sort compare (List.map fst (rows results))

let oracle_engine engine =
  let cache = Hashtbl.create 256 in
  fun spec ->
    match Hashtbl.find_opt cache spec with
    | Some r -> r
    | None ->
      let r = answer_of_exec (Engine.exec engine spec) in
      Hashtbl.add cache spec r;
      r

(* Bit-for-bit parity with an offline plain engine; a RANGE the checked
   engine ran as a sequential scan may differ in the last ulp of a
   distance, so it is compared on id sets. *)
let check_parity ~expected ~scan_ids_only (s : sample) =
  let want = expected s.spec in
  if not want.ok then Some ("oracle failed: " ^ want.error)
  else if scan_ids_only && s.op = Range && s.answer.path = Some "scan" then
    if id_set want.results = id_set s.answer.results then None
    else Some "degraded answer ids differ from the plain engine"
  else if want.results = s.answer.results then None
  else Some "answers differ from the plain engine"

(* Failures: an error response, or an answer the oracle rejects;
   [verdicts] holds the oracle's verdict on each sample, in order. *)
let judge samples verdicts =
  let failures =
    List.filter_map
      (fun (s, verdict) ->
        if not s.answer.ok then Some (s.spec ^ ": " ^ s.answer.error)
        else Option.map (fun m -> s.spec ^ ": " ^ m) verdict)
      (List.combine samples verdicts)
  in
  (List.length failures, List.filteri (fun i _ -> i < 5) failures)

(* --- end-to-end metrics -------------------------------------------------- *)

let pct q = Printf.sprintf "p%g" (q *. 100.)

let beyond q n = n - int_of_float (Float.ceil (q *. float_of_int n))

(* The highest of p90, p99 and p99.9 with at least ten samples beyond
   it among [n]. *)
let tail_for n =
  List.fold_left (fun acc q -> if beyond q n >= 10 then q else acc) 0.9
    [ 0.9; 0.99; 0.999 ]

(* Median and tail of the answered queries [filter] keeps. The tail is
   [tail], or else the one [tail_for] picks for this sample count. *)
let latency_metrics ?tail samples ~label ~filter =
  let xs =
    List.filter_map
      (fun s ->
        if s.answer.ok && filter s then Some (s.latency_s *. 1000.) else None)
      samples
  in
  let n = List.length xs in
  let q = match tail with Some q -> q | None -> tail_for n in
  let b = beyond q n in
  [
    metric (label ^ "_p50_ms") "ms" (median xs) ~note:(Printf.sprintf "n=%d" n);
    metric (label ^ "_tail_ms") "ms" (quantile xs q)
      ~note:
        (Printf.sprintf "%s, n=%d, %d beyond%s" (pct q) n b
           (if b < 10 then " (fewer than 10: too short a run)" else ""));
  ]

(* The JSON line's metrics, with the workload's fixed tail percentiles
   for RANGE and for the other queries, and the rest for people. *)
let answered samples = List.length (List.filter (fun s -> s.answer.ok) samples)

(* A timed region is cut into slices, each of [seconds] of wall time
   around [Host.now] time [at], with a host-speed burst between two. *)
type slice = { at : float; seconds : float }

(* The slices' wall time, each slice's scaled by [scale] at its time. *)
let wall ~scale slices =
  List.fold_left (fun acc sl -> acc +. (sl.seconds *. scale sl.at)) 0. slices

(* The end-to-end metrics, their times scaled to the nominal host, and
   for people their raw values and the rest. [setup] holds each set-up's
   [(at, seconds)]. *)
let end_to_end ~tails:(range_tail, nonrange_tail) ~setup ~heap_mb ~slices
    raw_samples =
  let measures scale =
    let samples =
      List.map
        (fun s -> { s with latency_s = s.latency_s *. scale s.at })
        raw_samples
    in
    let setup = List.map (fun (at, s) -> s *. scale at) setup in
    let wall = wall ~scale slices in
    let ok = answered samples in
    ( samples,
      [
        metric "setup_s" "s" (median setup)
          ~note:(Printf.sprintf "median of %d set-ups" (List.length setup));
        metric "heap_live_mb" "MB" heap_mb;
        metric "throughput_qps" "1/s" (float_of_int ok /. wall)
          ~note:(Printf.sprintf "%d answered in %.2f s" ok wall);
      ]
      @ latency_metrics ~tail:range_tail samples ~label:"range"
          ~filter:(fun s -> s.op = Range)
      @ latency_metrics ~tail:nonrange_tail samples ~label:"nonrange"
          ~filter:(fun s -> s.op <> Range) )
  in
  let samples, main = measures Host.scale_at in
  let _, raw = measures (fun _ -> 1.) in
  let raw =
    List.filter_map
      (fun m ->
        if m.unit = "MB" then None
        else Some { m with name = m.name ^ ".raw" })
      raw
  in
  let host =
    metric "host.kernel_ms" "ms" (Host.kernel_ms ())
      ~note:
        (Printf.sprintf "median of %d kernel runs; scaled by %.4f on average"
           (List.length !Host.runs) (Host.nominal_ms /. Host.kernel_ms ()))
  in
  let answers =
    List.filter_map
      (fun s ->
        if s.answer.ok && s.op = Range then
          Some (float_of_int (List.length (rows s.answer.results)))
        else None)
      samples
  in
  let has op = List.exists (fun s -> s.op = op) samples in
  let extra =
    (host :: raw)
    @ metric "range_answers_p50" "count" (median answers)
        ~note:(Printf.sprintf "quartiles %g..%g, max %g" (quantile answers 0.25)
                 (quantile answers 0.75) (quantile answers 1.))
      :: latency_metrics samples ~label:"query" ~filter:(fun _ -> true)
    @ List.concat_map
        (fun (op, label) ->
          if has op then
            latency_metrics samples ~label ~filter:(fun s -> s.op = op)
          else [])
        [ (Nearest, "nn"); (Pairs, "pairs") ]
  in
  (main, extra)

(* --- in-process set-up ------------------------------------------------- *)

(* Engines in this process run on one domain. An idle worker domain
   still takes part in every minor collection, so on a shared two-core
   host each collection waits for the other core: with two domains,
   index-mixed ran a third slower and twice as unsteady. *)
let single_domain () = Pool.set_default_domains 1

(* A pool over every core, for the untimed calibration and oracle work;
   its domains are gone before the timed region starts. *)
let with_pool f =
  let pool = Pool.create ~domains:(Domain.recommended_domain_count ()) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let span traced name f = if traced then Trace.with_span name f else f ()

(* The relation is pinned: it derives from the bench seed 1995 and the
   workload, not from --seed, which draws the query stream. Costs differ
   more between two generated markets than between two query streams
   over one market, and a benchmark compares code, not markets. *)
let write_relation ~path ~count =
  let seed = Simq_experiments.Bench_util.derived_seed count in
  let batch = Simq_workload.Stocklike.batch ~seed ~count ~n:128 in
  Relation.save (Relation.of_series ~name:"r" batch) path

(* One set-up from the relation file to a ready engine, each public step
   timed on its own; returns the engine and the total. *)
let setup_once ~traced ~layers ~path ~extra_sketch make =
  let relation, load_s =
    time (fun () -> span traced "storage.load" (fun () -> Relation.load path))
  in
  let dataset, dataset_s =
    time (fun () ->
        span traced "dataset.build" (fun () -> Dataset.of_relation relation))
  in
  let index, kindex_s =
    time (fun () -> span traced "kindex.build" (fun () -> Kindex.build dataset))
  in
  let engine, engine_s =
    time (fun () -> span traced "engine.create" (fun () -> make index))
  in
  if traced then begin
    add_timing layers "storage.load_s" load_s;
    add_timing layers "dataset.build_s" dataset_s;
    add_timing layers "kindex.build_s" kindex_s;
    if extra_sketch then begin
      let _, sketch_s =
        time (fun () ->
            span traced "sketch.build" (fun () ->
                Simq_sketch.create ~config:Simq_sketch.default dataset))
      in
      add_timing layers "sketch.build_s" sketch_s
    end
  end;
  (engine, load_s +. dataset_s +. kindex_s +. engine_s)

(* setup_s is the median of this many set-ups. *)
let setups = 9

let setup_reps ~reps ~traced ~layers ~path ?(extra_sketch = false) make =
  let rec go i acc =
    Gc.full_major ();
    Host.burst ();
    let at = Host.now () in
    let engine, s = setup_once ~traced ~layers ~path ~extra_sketch make in
    if i + 1 >= reps then (engine, List.rev ((at, s) :: acc))
    else go (i + 1) ((at, s) :: acc)
  in
  go 0 []

let live_heap_mb () =
  Gc.full_major ();
  let st = Gc.stat () in
  float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* --- the closed loop ----------------------------------------------------- *)

(* A schedule is a seeded sequence of query rounds: each round holds a
   fixed mix (so every run sees the same proportions), shuffled and drawn
   afresh from the seed. It is built before timing starts, sized past
   what a run is expected to use, and cycled if a run outgrows it. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let schedule rounds =
  let flat = Array.concat (Array.to_list rounds) in
  fun i -> flat.(i mod Array.length flat)

(* Timed regions are cut into slices of [slice_s], with a host-speed
   burst before each: about 30 bursts in a 15-s run, taking about 3% of
   its time. *)
let slice_s = 0.5

(* One caller, one query at a time, for [seconds] of wall time outside
   the host-speed bursts. *)
let closed_loop ~seconds ~next exec =
  let rec slices i acc done_s out =
    if done_s >= seconds then (List.rev acc, List.rev out)
    else begin
      Host.burst ();
      let at = Host.now () and t0 = Clock.now_ns () in
      let limit = Float.min slice_s (seconds -. done_s) in
      let rec go i acc =
        if Clock.elapsed_s t0 >= limit then (i, acc)
        else go (i + 1) (exec (next i) :: acc)
      in
      let i, acc = go i acc in
      let w = Clock.elapsed_s t0 in
      slices i acc (done_s +. w) ({ at = at +. (w /. 2.); seconds = w } :: out)
    end
  in
  slices 0 [] 0. []

let exec_untraced engine spec =
  let at = Host.now () in
  let r, lat = time (fun () -> Engine.exec engine spec) in
  {
    spec;
    op = op_of_spec spec;
    at;
    latency_s = lat;
    answer = answer_of_exec r;
    exec_ms = nan;
    profile = None;
  }

(* A traced query: one request id, the benchmark's spans around each
   public call, the parse and query preparation timed on their own, and
   the engine's operator tree kept for the layer split. *)
let exec_traced ~layers ~dataset ~noise engine spec =
  Trace.with_request (Trace.new_request_id ()) @@ fun () ->
  Trace.with_span "bench.query" @@ fun () ->
  let parsed, parse_s =
    time (fun () -> Trace.with_span "ql.parse" (fun () -> Ql.parse spec))
  in
  add_timing layers "ql.parse_us" (parse_s *. 1e6);
  (match parsed with
  | Ok (Ql.Range { spec; query; _ } | Ql.Nearest { spec; query; _ }) -> (
    match Engine.resolve_query_series dataset spec ~name:query ~noise with
    | Ok series ->
      let _, s =
        time (fun () ->
            Trace.with_span "dataset.prepare_query" (fun () ->
                Dataset.prepare_query series))
      in
      add_timing layers "dataset.prepare_query_us" (s *. 1e6)
    | Error _ -> ())
  | Ok (Ql.Pairs _) | Error _ -> ());
  let profile = Profile.create () in
  let at = Host.now () in
  let r, lat =
    time (fun () ->
        Trace.with_span "engine.exec" (fun () ->
            Engine.exec ~profile engine spec))
  in
  add_timing layers "engine.exec_ms" (lat *. 1000.);
  {
    spec;
    op = op_of_spec spec;
    at;
    latency_s = lat;
    answer = answer_of_exec r;
    exec_ms = nan;
    profile = Some (Profile.to_json profile);
  }

(* --- workloads ----------------------------------------------------------- *)

type config = { seed : int; seconds : float; traced : bool }

(* Paths relative to the root of the checkout run.sh has just built. *)
let work = ".perfbench"
let simq_binary = "_build/default/bin/simq.exe"

let work_file name seed ext =
  Filename.concat work (Printf.sprintf "%s-%d.%s" name seed ext)

let rng seed tag r = Random.State.make [| seed; tag; r |]

let using st = function
  | 0 -> ""
  | 1 -> " USING rev"
  | 2 ->
    let w = 2 + Random.State.int st 6 in
    Printf.sprintf " USING mavg(%d)" w
  | _ ->
    let w = 2 + Random.State.int st 6 in
    Printf.sprintf " USING wma(%d)" w

let query_name st cardinality =
  Printf.sprintf "s%d" (Random.State.int st cardinality)

(* Traced against untraced goodput on the same schedule, both scaled to
   the nominal host, since the two passes run at different times. *)
let set_trace_overhead layers ~untraced ~slices ~traced ~traced_slices =
  let qps samples slices =
    float_of_int (answered samples)
    /. wall ~scale:Host.scale_at slices
  in
  set_value layers "trace.throughput_qps" (qps traced traced_slices);
  set_value layers "trace.overhead_ratio"
    (ratio (qps untraced slices) (qps traced traced_slices))

(* Run an offline workload: untraced, or an untraced pass followed by a
   traced pass on the same schedule (their throughput ratio is the
   tracing overhead). *)
let offline_passes cfg ~layers ~engine ~dataset ~noise ~next =
  let warm = 3 in
  for i = 0 to warm - 1 do
    ignore (Engine.exec engine (next i))
  done;
  let relation = Dataset.relation dataset in
  let untraced, slices =
    closed_loop ~seconds:cfg.seconds ~next (exec_untraced engine)
  in
  if not cfg.traced then (untraced, slices, [])
  else begin
    Io_stats.reset (Relation.stats relation);
    Trace.set_enabled true;
    let traced, traced_slices =
      closed_loop ~seconds:cfg.seconds ~next
        (exec_traced ~layers ~dataset ~noise engine)
    in
    Trace.set_enabled false;
    let io = Relation.stats relation in
    let reads = float_of_int (Io_stats.page_reads io) in
    let hits = float_of_int (Io_stats.cache_hits io) in
    let queries = float_of_int (List.length traced) in
    set_value layers "storage.page_reads_per_query" (ratio reads queries);
    set_value layers "storage.cache_hit_ratio" (ratio hits (hits +. reads));
    set_trace_overhead layers ~untraced ~slices ~traced ~traced_slices;
    profile_layers layers traced;
    (untraced, slices, traced)
  end

let finish cfg ~layers ~tails ~setup ~heap_mb ~slices ~untraced ~traced check =
  let all = untraced @ traced in
  let failed, mismatches = judge all (check all) in
  let main, extra = end_to_end ~tails ~setup ~heap_mb ~slices untraced in
  let attempted = List.length all in
  let share =
    metric "failed_share" "ratio"
      (ratio (float_of_int failed) (float_of_int attempted))
      ~note:(Printf.sprintf "%d of %d" failed attempted)
  in
  if cfg.traced then
    {
      attempted;
      failed;
      mismatches;
      metrics = layer_outcome layers;
      extra = main @ extra @ [ share ];
    }
  else
    { attempted; failed; mismatches; metrics = main; extra = extra @ [ share ] }

(* The epsilon at which [text], a RANGE query, has about [target]
   answers, estimated from a seeded sample of the data: the rank
   [target * |sample| / n] distance from the query to the sample. *)
let calibrated_epsilon ~dataset ~sample ~noise ~target text =
  match Ql.parse text with
  | Ok (Ql.Range { spec; query; _ }) -> (
    match Engine.resolve_query_series dataset spec ~name:query ~noise with
    | Ok series ->
      let q = Dataset.prepare_query series in
      let d =
        Array.map
          (fun (e : Dataset.entry) ->
            Simq_series.Distance.euclidean
              (Simq_tsindex.Spec.apply_series spec e.Dataset.normal)
              q.Dataset.normal)
          sample
      in
      Array.sort Float.compare d;
      let rank = target * Array.length sample / Dataset.cardinality dataset in
      d.(Int.min (Array.length d - 1) (Int.max 0 (rank - 1)))
    | Error _ -> invalid_arg ("perfbench: unresolvable query in " ^ text))
  | _ -> invalid_arg ("perfbench: not a RANGE query: " ^ text)

(* index-mixed: 8192 series (2048 pages, 32 times the buffer pool)
   behind the sketched, noisy engine of [simq query --sketch --noise];
   one in-process caller. Each round holds 16 RANGE queries and 7
   NEAREST (k 1..8): 70/30, with the transforms id, rev, mavg(w) and
   wma(w) in turn. RANGE epsilons follow the Fig 12 axis: each is
   calibrated so that its answer set has a target size, log-spaced from
   about 10 to 3000 across the round. Fixing answer-set sizes rather
   than epsilons keeps a run's cost from depending on how dense the
   region around each drawn query series happens to be. *)
let index_mixed cfg =
  let cardinality = 8192 and noise = 0.4 in
  single_domain ();
  let path = work_file "index-mixed" cfg.seed "rel" in
  write_relation ~path ~count:cardinality;
  let layers = new_layers () in
  let engine, setup =
    setup_reps ~reps:setups ~traced:cfg.traced ~layers ~path ~extra_sketch:true
      (fun index -> Engine.create ~sketch:Simq_sketch.default ~noise index)
  in
  let heap_mb = live_heap_mb () in
  let dataset = Kindex.dataset (Engine.index engine) in
  let sample =
    let st = rng cfg.seed 2 0 in
    Array.init 1024 (fun _ ->
        Dataset.get dataset (Random.State.int st cardinality))
  in
  let round pool r =
    let st = rng cfg.seed 1 r in
    let ranges =
      Array.init 16 (fun i ->
          let u = using st ((i + r) mod 4) in
          let q = query_name st cardinality in
          let target =
            int_of_float (8. *. (2. ** (9. *. (float_of_int i +. 0.5) /. 16.)))
          in
          (Printf.sprintf "RANGE FROM r%s QUERY %s EPS" u q, target))
    in
    let ranges =
      Pool.map_array ~pool ~chunk:1
        (fun (head, target) ->
          let eps =
            calibrated_epsilon ~dataset ~sample ~noise ~target (head ^ " 1")
          in
          Printf.sprintf "%s %.4f" head eps)
        ranges
    in
    let nearest =
      Array.init 7 (fun i ->
          let k = 1 + ((i + r) mod 8) in
          let u = using st ((i + r) mod 4) in
          let q = query_name st cardinality in
          Printf.sprintf "NEAREST %d FROM r%s QUERY %s" k u q)
    in
    shuffle st (Array.append ranges nearest)
  in
  (* Room for about 230 queries a second; simq answered about 150 when
     this benchmark was written. A faster run repeats the schedule. *)
  let rounds =
    with_pool (fun pool ->
        Array.init
          ((10 * int_of_float (Float.ceil cfg.seconds)) + 2)
          (round pool))
  in
  let untraced, slices, traced =
    offline_passes cfg ~layers ~engine ~dataset ~noise ~next:(schedule rounds)
  in
  Sys.remove path;
  (* The reference scans are independent: spread them over the pool. *)
  finish cfg ~layers ~tails:(0.9, 0.9) ~setup ~heap_mb ~slices ~untraced ~traced
    (fun all ->
      with_pool (fun pool ->
          Array.to_list
            (Pool.map_array ~pool ~chunk:1
               (check_against_reference ~dataset ~noise)
               (Array.of_list all))))

(* scan-join: 2048 series (about 530 pages, beyond the 64-page buffer
   pool) behind a checked engine: a node-access budget and admission
   without live calibration, so every decision is a function of the
   query and the budget alone. Each round holds 3 scan-early PAIRS
   self-joins (id, rev, mavg), 5 wide RANGE queries and 2 narrow ones.
   The wide epsilon bands reach the sequential scan by each route of the
   resilient planner: the planner's own choice (about 20), an admission
   degradation (about 12) and a budget exhausted mid-descent (about 7).
   The narrow ones are admitted to the index. No NEAREST: under a tight
   node budget NN fails rather than degrading. *)
let scan_join_budget = 60

let scan_join cfg =
  let cardinality = 2048 in
  let path = work_file "scan-join" cfg.seed "rel" in
  write_relation ~path ~count:cardinality;
  let layers = new_layers () in
  let budget =
    Simq_fault.Budget.create ~max_node_accesses:scan_join_budget ()
  in
  let admission = Simq_admission.create ~calibrate:false () in
  let engine, setup =
    setup_reps ~reps:setups ~traced:cfg.traced ~layers ~path
      (fun index -> Engine.create ~budget ~admission index)
  in
  let heap_mb = live_heap_mb () in
  let dataset = Kindex.dataset (Engine.index engine) in
  let round r =
    let st = rng cfg.seed 3 r in
    let pairs =
      List.map
        (fun t ->
          let u = using st t in
          let eps = 2.5 +. Random.State.float st 1.0 in
          Printf.sprintf "PAIRS FROM r%s EPS %.2f METHOD scan-early" u eps)
        [ 0; 1; 2 ]
    in
    let range lo width =
      let u = using st (Random.State.int st 4) in
      let q = query_name st cardinality in
      let eps = lo +. Random.State.float st width in
      Printf.sprintf "RANGE FROM r%s QUERY %s EPS %.2f" u q eps
    in
    let wide =
      [ range 18. 6.; range 18. 6.; range 10. 4.; range 10. 4.; range 6. 3. ]
    in
    let narrow = [ range 0.5 2.5; range 0.5 2.5 ] in
    shuffle st (Array.of_list (pairs @ wide @ narrow))
  in
  let untraced, slices, traced =
    offline_passes cfg ~layers ~engine ~dataset ~noise:0.
      ~next:(schedule (Array.init 400 round))
  in
  Sys.remove path;
  let expected = oracle_engine (Engine.create (Engine.index engine)) in
  finish cfg ~layers ~tails:(0.9, 0.9) ~setup ~heap_mb ~slices ~untraced ~traced
    (List.map (check_parity ~expected ~scan_ids_only:true))

(* --- the daemon -------------------------------------------------------- *)

let daemons = ref []

let reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Whatever happens to the benchmark, no daemon outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !daemons)

let find_sub text key =
  let n = String.length text and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub text i k = key then Some (i + k)
    else go (i + 1)
  in
  go 0

let port_of_log log =
  let text = In_channel.with_open_bin log In_channel.input_all in
  match find_sub text "serving queries on 127.0.0.1:" with
  | None -> None
  | Some i ->
    let j = ref i in
    while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
      incr j
    done;
    int_of_string_opt (String.sub text i (!j - i))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let request ~port line =
  let c = Client.connect ~timeout:60. ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.send_line c line;
  Client.recv_line c

(* Spawn [simq serve --shards 4] on an ephemeral loopback port; the
   set-up time runs from the spawn to the first answered ping. *)
let spawn_daemon ~file ~log =
  let t0 = Clock.now_ns () in
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (* The daemon reads nothing on stdin; give it an empty pipe. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process simq_binary
      [|
        simq_binary; "serve"; file; "--shards"; "4"; "--jobs"; "1";
        "--port"; "0";
      |]
      stdin_r fd fd
  in
  List.iter Unix.close [ fd; stdin_r; stdin_w ];
  daemons := pid :: !daemons;
  let rec wait_port () =
    match port_of_log log with
    | Some port -> port
    | None ->
      if exited pid then failwith "perfbench: the daemon exited at start-up";
      if Clock.elapsed_s t0 > 120. then
        failwith "perfbench: the daemon did not start";
      Unix.sleepf 0.001;
      wait_port ()
  in
  let port = wait_port () in
  (match request ~port "ping" with
  | Some line when find_sub line "simq.serve.pong" <> None -> ()
  | _ -> failwith "perfbench: the simq daemon did not answer ping");
  (pid, port, Clock.elapsed_s t0)

let stop_daemon (pid, port, _) =
  ignore (request ~port "shutdown");
  let t0 = Clock.now_ns () in
  while (not (exited pid)) && Clock.elapsed_s t0 < 30. do
    Unix.sleepf 0.005
  done;
  if not (exited pid) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid
  end;
  daemons := List.filter (( <> ) pid) !daemons

(* Closed loops, one connection per stream: a client sends its next
   line only once the previous response has arrived. The run is cut into
   slices of [slice_s]; between two, every connection is idle while the
   host-speed burst runs. *)
let drive ~port ~seconds ~profile streams =
  let n = Array.length streams in
  let per_client = Array.map (fun _ -> ref []) streams in
  let record i spec at resp lat =
    per_client.(i) := (spec, at, resp, lat) :: !(per_client.(i))
  in
  let conns =
    Array.mapi
      (fun i specs ->
        match Client.connect ~timeout:60. ~host:"127.0.0.1" ~port () with
        | c -> Some c
        | exception Unix.Unix_error _ ->
          record i specs.(0) (Host.now ()) None 0.;
          None)
      streams
  in
  let sent = Array.make n 0 in
  let drop i c =
    Client.close c;
    conns.(i) <- None
  in
  (* Client [i] until [limit] seconds after [t0]; a lost connection is
     recorded and dropped. *)
  let client ~t0 ~limit i =
    match conns.(i) with
    | None -> ()
    | Some c ->
      let specs = streams.(i) in
      let rec go () =
        if Clock.elapsed_s t0 < limit then begin
          let spec = specs.(sent.(i) mod Array.length specs) in
          let line =
            (if profile then "profile " else "") ^ Protocol.escape spec
          in
          let at = Host.now () in
          sent.(i) <- sent.(i) + 1;
          match
            time (fun () ->
                Client.send_line c line;
                Client.recv_line c)
          with
          | (Some _ as resp), lat ->
            record i spec at resp lat;
            go ()
          | None, lat ->
            record i spec at None lat;
            drop i c
          | exception Unix.Unix_error _ ->
            record i spec at None 0.;
            drop i c
        end
      in
      go ()
  in
  let slices =
    Fun.protect
      ~finally:(fun () -> Array.iter (Option.iter Client.close) conns)
      (fun () ->
        let rec loop done_s out =
          if done_s >= seconds || Array.for_all Option.is_none conns then
            List.rev out
          else begin
            Host.burst ();
            let at = Host.now () and t0 = Clock.now_ns () in
            let limit = Float.min slice_s (seconds -. done_s) in
            List.init n (Thread.create (client ~t0 ~limit))
            |> List.iter Thread.join;
            let w = Clock.elapsed_s t0 in
            loop (done_s +. w) ({ at = at +. (w /. 2.); seconds = w } :: out)
          end
        in
        loop 0. [])
  in
  let samples =
    Array.to_list per_client
    |> List.concat_map (fun r -> List.rev !r)
    |> List.map (fun (spec, at, resp, lat) ->
           let answer, exec_ms, profile =
             match resp with
             | Some line -> answer_of_response line
             | None -> (failure "connection lost", nan, None)
           in
           let op = op_of_spec spec in
           { spec; op; at; latency_s = lat; answer; exec_ms; profile })
  in
  (samples, slices)

(* The served layers measured from the untraced pass: the response's
   server-side time and what lies outside it, and the benchmark's own
   timings of the protocol, parser, query preparation and scatter-gather
   calls on the run's own lines, the last two on the in-process replica
   for the first 500 queries. *)
let served_layers layers ~replica samples =
  let dataset = Kindex.dataset (Engine.index replica) in
  let sharded = Option.get (Engine.sharded replica) in
  (* The span takes the metric's name without its unit. *)
  let timed name scale f =
    let span = String.sub name 0 (String.rindex name '_') in
    let r, s = time (fun () -> Trace.with_span span f) in
    add_timing layers name (s *. scale);
    r
  in
  let on_replica spec query f =
    match Engine.resolve_query_series dataset spec ~name:query ~noise:0. with
    | Ok series ->
      ignore
        (timed "dataset.prepare_query_us" 1e6 (fun () ->
             Dataset.prepare_query series));
      ignore (timed "shard.exec_ms" 1000. (fun () -> f series))
    | Error _ -> ()
  in
  Trace.set_enabled true;
  List.iteri
    (fun i s ->
      Trace.with_request (Trace.new_request_id ()) @@ fun () ->
      if s.answer.ok then begin
        add_timing layers "serve.exec_ms" s.exec_ms;
        add_timing layers "engine.exec_ms" s.exec_ms;
        add_timing layers "serve.outside_exec_ms"
          ((s.latency_s *. 1000.) -. s.exec_ms);
        let (line, esc) = time (fun () -> Protocol.escape s.spec) in
        let _, parse = time (fun () -> Protocol.parse_request line) in
        add_timing layers "protocol.parse_us" ((esc +. parse) *. 1e6);
        let results = results_json s.answer.results in
        let answers = List.length (Option.value (J.arr results) ~default:[]) in
        ignore
          (timed "protocol.encode_us" 1e6 (fun () ->
               Protocol.ok_line ~seq:(i + 1) ~spec:s.spec ~path:s.answer.path
                 ~decision:s.answer.decision ~answers ~results
                 ~duration_s:(s.exec_ms /. 1000.) ()))
      end;
      match timed "ql.parse_us" 1e6 (fun () -> Ql.parse s.spec) with
      | Ok (Ql.Range { spec; query; epsilon; mean_window; std_band; _ })
        when i < 500 ->
        on_replica spec query (fun series ->
            ignore
              (Simq_shard.range ~spec ?mean_window ?std_band sharded
                 ~query:series ~epsilon))
      | Ok (Ql.Nearest { k; spec; query; _ }) when i < 500 ->
        on_replica spec query (fun series ->
            ignore (Simq_shard.nearest ~spec sharded ~query:series ~k))
      | _ -> ())
    samples;
  Trace.set_enabled false

(* [Queries.spec_mix] draws each query's kind at random. Its queries are
   regrouped, in order, into rounds of exactly 6 RANGE, 3 NEAREST and 1
   PAIRS, each round shuffled: every run then sees the documented
   60/30/10 mix, not a mix that drifts with the seed. *)
let rounds_of_mix st specs =
  let kind op =
    Array.of_list (List.filter (fun s -> op_of_spec s = op) specs)
  in
  let r = kind Range and n = kind Nearest and p = kind Pairs in
  let rounds =
    Int.min (Array.length r / 6) (Int.min (Array.length n / 3) (Array.length p))
  in
  Array.concat
    (List.init rounds (fun k ->
         shuffle st
           (Array.concat
              [
                Array.sub r (6 * k) 6; Array.sub n (3 * k) 3; Array.sub p k 1;
              ])))

(* served-mixed: 960 series behind a separate [simq serve --shards 4]
   daemon (240 series per shard, inside each shard's buffer pool), two
   closed-loop connections posing the daemon's documented traffic,
   [Queries.spec_mix]: 60% RANGE, 30% NEAREST, 10% scan-early PAIRS. No
   in-flight cap, so any shed or error is a failure. *)
let served_mixed cfg =
  let cardinality = 960 and clients = 2 in
  single_domain ();
  let file = work_file "served-mixed" cfg.seed "rel" in
  let log = work_file "served-mixed" cfg.seed "log" in
  write_relation ~path:file ~count:cardinality;
  let layers = new_layers () in
  (* The daemon's live heap cannot be read from outside, so it is taken
     from an in-process replica of its engine: the same relation, index
     and four shards. *)
  let replica, _ =
    setup_reps ~reps:5 ~traced:cfg.traced ~layers ~path:file
      (fun index -> Engine.create ~shards:4 index)
  in
  let heap_mb = live_heap_mb () in
  let setup =
    List.init setups (fun _ ->
        Host.burst ();
        let at = Host.now () in
        let d = spawn_daemon ~file ~log in
        stop_daemon d;
        let _, _, s = d in
        (at, s))
  in
  let ((_, port, _) as daemon) = spawn_daemon ~file ~log in
  let streams =
    Array.init clients (fun i ->
        Simq_workload.Queries.spec_mix ~seed:(cfg.seed + (1009 * (i + 1)))
          ~cardinality ~count:20000 ()
        |> rounds_of_mix (rng cfg.seed 4 i))
  in
  let untraced, slices, traced =
    Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
    (* Warm-up outside the timed region. *)
    ignore (drive ~port ~seconds:0.3 ~profile:false streams);
    let pass profile = drive ~port ~seconds:cfg.seconds ~profile streams in
    let untraced, slices = pass false in
    if not cfg.traced then (untraced, slices, [])
    else begin
      let traced, traced_slices = pass true in
      set_trace_overhead layers ~untraced ~slices ~traced ~traced_slices;
      (untraced, slices, traced)
    end
  in
  Sys.remove file;
  Sys.remove log;
  if cfg.traced then begin
    profile_layers layers traced;
    served_layers layers ~replica untraced
  end;
  let expected = oracle_engine (Engine.create (Engine.index replica)) in
  finish cfg ~layers ~tails:(0.99, 0.99) ~setup ~heap_mb ~slices ~untraced
    ~traced
    (List.map (check_parity ~expected ~scan_ids_only:false))

let workloads =
  [
    ("index-mixed", index_mixed);
    ("served-mixed", served_mixed);
    ("scan-join", scan_join);
  ]

(* --- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" in
  let seed = ref (Simq_experiments.Bench_util.derived_seed 11) in
  let seconds = ref 15. in
  let trace = ref 0 in
  let usage =
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME index-mixed | served-mixed | scan-join" );
      ( "--seed",
        Arg.Set_int seed,
        "N query-stream seed (default derived from 1995)" );
      ("--seconds", Arg.Set_float seconds, "S measured seconds per pass");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end run, or traced per-layer run" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace is 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  Simq_obs.Metrics.set_enabled false;
  Trace.set_enabled false;
  let cfg = { seed = !seed; seconds = !seconds; traced = !trace = 1 } in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" !workload cfg.seed
    cfg.seconds !trace;
  let o =
    try run cfg
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
  in
  (* After the run, which may have set the pool's size. *)
  Printf.printf "env: nproc=%d pool_domains=%d ocaml=%s commit=%s\n%!"
    (Domain.recommended_domain_count ())
    (Pool.default_domains ()) Sys.ocaml_version
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown");
  if cfg.traced then
    Trace.export_file
      (Filename.concat work
         (Printf.sprintf "trace-%s-%d.json" !workload cfg.seed));
  List.iter (Printf.eprintf "perfbench: failed: %s\n") o.mismatches;
  print_endline
    (if cfg.traced then "per-layer (traced run):" else "end-to-end:");
  List.iter print_metric o.metrics;
  print_endline "also measured:";
  List.iter print_metric o.extra;
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (value m.value) m.unit)
          o.metrics))
