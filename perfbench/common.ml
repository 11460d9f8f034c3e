(* Shared pieces of the benchmark: clocks, raw-sample statistics, metric
   records and the result line. *)

module Json = Vp_observe.Json

(* Monotonic, nanosecond resolution: sub-microsecond stages stay
   distinguishable, which [Unix.gettimeofday]'s doubles are not. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A growable float buffer: per-op samples are kept raw, never bucketed. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n

  let concat ts = Array.concat (List.map to_array ts)
end

(* Exact nearest-rank percentile of raw samples: the smallest sample with at
   least [q * n] samples at or below it. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median samples = percentile samples 0.5

let sum samples = Array.fold_left ( +. ) 0.0 samples

(* On a shared host the speed drifts in bursts of a few seconds. Timed
   server runs are therefore cut into equal windows of about a
   second and each end-to-end figure is the median over windows, so a
   burst that slows a minority of windows does not move it. [points] are
   (completion time since the start, latency in ms); ops completing after
   [elapsed] count in the last window. *)
let window_width = 1.0

let windowed ~elapsed points =
  let n = max 1 (int_of_float (elapsed /. window_width)) in
  let width = elapsed /. float_of_int n in
  let buckets = Array.make n [] in
  Array.iter
    (fun (at, ms) ->
      let w = min (n - 1) (int_of_float (at /. width)) in
      buckets.(w) <- ms :: buckets.(w))
    points;
  let buckets = Array.to_list (Array.map Array.of_list buckets) in
  let busy = List.filter (fun b -> Array.length b > 0) buckets in
  let per f l = median (Array.of_list (List.map f l)) in
  ( per (fun b -> float_of_int (Array.length b) /. width) buckets,
    per median busy,
    per (fun b -> percentile b 0.99) busy,
    n )

(* A tracing hook: identity on timed runs, a span on the traced run. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

type metric = { name : string; value : float; unit_ : string; count : int }

let metric ?(count = 1) name unit_ value = { name; value; unit_; count }

let print_metric ~tag m =
  Printf.printf "%-6s %-34s %16.6f %-8s n=%d\n" tag m.name m.value m.unit_
    m.count

(* The result line: always the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let value m =
    Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj (List.map (fun m -> (m.name, value m)) metrics) );
          ]))

(* Resident-set high-water mark of a live process, in MiB (Linux). *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.starts_with ~prefix:"VmHWM:" line then
                  Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                      float_of_int kb /. 1024.0)
                else scan ()
          in
          scan ())

(* A failed output check: counted, reported on stderr, and fatal for the
   run's exit code. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 20 then prerr_endline ("check failed: " ^ msg))
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* An independent 64-bit seed for each input derived from the run's seed. *)
let seed64 seed salt =
  Vp_robust.Mix.mix64
    (Int64.add (Int64.mul (Int64.of_int seed) 7919L) (Int64.of_int salt))

(* Set-up is repeated and its median reported, so a change that moves work
   into set-up shows as a set-up regression. *)
let repeated_setup ~times ~setup ~teardown =
  let rec go k acc =
    let v, s = time setup in
    if k = times then (v, median (Array.of_list (s :: acc)))
    else begin
      teardown v;
      go (k + 1) (s :: acc)
    end
  in
  go 1 []
