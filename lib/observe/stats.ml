(* Write-local, merge-on-read metrics. Each (metric, domain) pair owns a
   private cell holding Atomics; increments never contend, and a snapshot
   folds over all cells ever registered. A domain that exits hands its
   cell table to the next domain to start, so the cells are bounded by
   the domains alive at once. The registry mutex guards only interning,
   cell registration and table hand-over (all rare), never the hot
   path. *)

let bucket_count = 64

type kind = Kcounter | Kgauge | Khistogram

type cell = {
  count : int Atomic.t;     (* counters: value; histograms: observations *)
  sum : float Atomic.t;     (* histograms only *)
  hist : int Atomic.t array;  (* histograms only; [||] otherwise *)
}

type metric = {
  name : string;
  kind : kind;
  id : int;
  shared : int Atomic.t;  (* gauges: the single last-set cell *)
  mutable cells : cell list;  (* per-domain cells; registry mutex *)
}

type counter = metric
type gauge = metric
type histogram = metric

let registry_mutex = Mutex.create ()

let metrics : (string, metric) Hashtbl.t = Hashtbl.create 64

let next_id = ref 0

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

let intern name kind =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt metrics name with
    | Some m ->
        if m.kind <> kind then begin
          Mutex.unlock registry_mutex;
          invalid_arg
            (Printf.sprintf "Stats.%s: %S is already a %s" (kind_name kind)
               name (kind_name m.kind))
        end;
        m
    | None ->
        let m =
          {
            name;
            kind;
            id = !next_id;
            shared = Atomic.make 0;
            cells = [];
          }
        in
        incr next_id;
        Hashtbl.add metrics name m;
        m
  in
  Mutex.unlock registry_mutex;
  m

let counter name = intern name Kcounter

let gauge name = intern name Kgauge

let histogram name = intern name Khistogram

(* Cell tables of exited domains, waiting for a domain to take them over;
   registry mutex. *)
let free_tables : (int, cell) Hashtbl.t list ref = ref []

(* This domain's cell table, metric id -> cell: an exited domain's table
   if one is free, else a new one. A cell is registered under its metric
   so snapshots from other domains see it, and its counts outlive the
   domain. Each cell keeps one writer at a time — its table passes on
   only once the domain that wrote it has exited — so counts stay
   exact. *)
let dls : (int, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_mutex;
      let tbl =
        match !free_tables with
        | tbl :: rest ->
            free_tables := rest;
            tbl
        | [] -> Hashtbl.create 16
      in
      Mutex.unlock registry_mutex;
      Domain.at_exit (fun () ->
          Mutex.lock registry_mutex;
          free_tables := tbl :: !free_tables;
          Mutex.unlock registry_mutex);
      tbl)

let cell_of (m : metric) =
  let tbl = Domain.DLS.get dls in
  match Hashtbl.find_opt tbl m.id with
  | Some c -> c
  | None ->
      let c =
        {
          count = Atomic.make 0;
          sum = Atomic.make 0.0;
          hist =
            (match m.kind with
            | Khistogram -> Array.init bucket_count (fun _ -> Atomic.make 0)
            | Kcounter | Kgauge -> [||]);
        }
      in
      Mutex.lock registry_mutex;
      m.cells <- c :: m.cells;
      Mutex.unlock registry_mutex;
      Hashtbl.add tbl m.id c;
      c

let add (c : counter) n =
  if n < 0 then invalid_arg "Stats.add: negative increment";
  ignore (Atomic.fetch_and_add (cell_of c).count n)

let incr c = add c 1

let set_gauge (g : gauge) v = Atomic.set g.shared v

(* Non-positive observations land in bucket 0; positive values bucket by
   binary exponent, clamped. frexp v = (m, e) with v = m * 2^e, m in
   [0.5, 1), so e + 32 maps ~1e-10 .. ~4e9 into distinct buckets. *)
let bucket_of v =
  if v <= 0.0 || Float.is_nan v then 0
  else
    let _, e = Float.frexp v in
    min (bucket_count - 1) (max 1 (e + 32))

(* Representative value of a bucket: its upper bound (so quantiles never
   understate). Bucket b covers [2^(b-33), 2^(b-32)). *)
let bucket_value b = if b = 0 then 0.0 else Float.ldexp 1.0 (b - 32)

let observe (h : histogram) v =
  let c = cell_of h in
  (* The cell is written only by its own domain, so get-then-set is safe;
     Atomic publishes the value to snapshotting domains. *)
  ignore (Atomic.fetch_and_add c.count 1);
  Atomic.set c.sum (Atomic.get c.sum +. v);
  ignore (Atomic.fetch_and_add c.hist.(bucket_of v) 1)

(* --- snapshots --- *)

type summary = { count : int; sum : float; buckets : int array }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * summary) list;
}

let merge_counter m =
  List.fold_left (fun acc (c : cell) -> acc + Atomic.get c.count) 0 m.cells

let merge_histogram m =
  let buckets = Array.make bucket_count 0 in
  let count, sum =
    List.fold_left
      (fun (n, s) (c : cell) ->
        Array.iteri (fun i b -> buckets.(i) <- buckets.(i) + Atomic.get b) c.hist;
        (n + Atomic.get c.count, s +. Atomic.get c.sum))
      (0, 0.0) m.cells
  in
  { count; sum; buckets }

let snapshot () =
  Mutex.lock registry_mutex;
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) metrics [] in
  let snap =
    List.fold_left
      (fun snap m ->
        match m.kind with
        | Kcounter ->
            { snap with counters = (m.name, merge_counter m) :: snap.counters }
        | Kgauge ->
            { snap with gauges = (m.name, Atomic.get m.shared) :: snap.gauges }
        | Khistogram ->
            {
              snap with
              histograms = (m.name, merge_histogram m) :: snap.histograms;
            })
      { counters = []; gauges = []; histograms = [] }
      all
  in
  Mutex.unlock registry_mutex;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name snap.counters;
    gauges = List.sort by_name snap.gauges;
    histograms = List.sort by_name snap.histograms;
  }

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let cell_count name =
  Mutex.lock registry_mutex;
  let n =
    match Hashtbl.find_opt metrics name with
    | Some m -> List.length m.cells
    | None -> 0
  in
  Mutex.unlock registry_mutex;
  n

let quantile s q =
  if q < 0.0 || q > 1.0 || Float.is_nan q then
    invalid_arg "Stats.quantile: rank outside [0, 1]";
  if s.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.count))) in
    let acc = ref 0 and found = ref 0.0 and done_ = ref false in
    Array.iteri
      (fun b n ->
        if not !done_ then begin
          acc := !acc + n;
          if !acc >= rank then begin
            found := bucket_value b;
            done_ := true
          end
        end)
      s.buckets;
    !found
  end

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ m ->
      Atomic.set m.shared 0;
      List.iter
        (fun (c : cell) ->
          Atomic.set c.count 0;
          Atomic.set c.sum 0.0;
          Array.iter (fun b -> Atomic.set b 0) c.hist)
        m.cells)
    metrics;
  Mutex.unlock registry_mutex

let render snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let nonzero = List.filter (fun (_, v) -> v <> 0) in
  let counters = nonzero snap.counters and gauges = nonzero snap.gauges in
  let histograms =
    List.filter (fun (_, s) -> s.count > 0) snap.histograms
  in
  if counters <> [] || gauges <> [] then begin
    line "  %-32s %16s" "counter" "value";
    List.iter (fun (n, v) -> line "  %-32s %16d" n v) counters;
    List.iter (fun (n, v) -> line "  %-32s %16d (gauge)" n v) gauges
  end;
  if histograms <> [] then begin
    line "  %-32s %10s %12s %10s %10s %10s" "histogram" "count" "mean" "p50"
      "p90" "p99";
    List.iter
      (fun (n, s) ->
        line "  %-32s %10d %12.3g %10.3g %10.3g %10.3g" n s.count
          (s.sum /. float_of_int s.count)
          (quantile s 0.5) (quantile s 0.9) (quantile s 0.99))
      histograms
  end;
  Buffer.contents buf
