(** Microbenchmarks of the real primitives under the three workloads:
    [Par.Ws_deque], [Par.Runtime], [Serve.Sched], [Net.Wire],
    [Net.Router], [Net.Batch], [Obs.Ring] and [Mclock].  Single-thread
    costs are Bechamel OLS estimates in ns per call, each with its r²;
    the contended steal and the session start are timed directly. *)

open Perfbench_core
open Common
open Bechamel

let quota_s = 0.25

(* ns per call of [f] (OLS over Bechamel's runs) and the fit's r². *)
let ols (name : string) (f : unit -> unit) : float * float =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None () in
  let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let r = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  let o = Hashtbl.find r name in
  match (Analyze.OLS.estimates o, Analyze.OLS.r_square o) with
  | Some [ ns ], Some r2 -> (ns, r2)
  | Some [ ns ], None -> (ns, nan)
  | _ -> (nan, nan)

(* One thief domain steals for [secs] while the owner pushes and pops
   at the bottom, restocking in bulk whenever fewer than 64 items are
   left, so most attempts meet a non-empty deque and race the owner's
   stores: thief ns per steal attempt, and the share of attempts that
   won. *)
let contended_steal ~(secs : float) : float * float =
  let d = Par.Ws_deque.create () in
  let stop = Atomic.make false in
  (* the thief is spawned on the second CPU and the owner keeps the
     first; unplaced, the scheduler may stack both on one CPU, and the
     thief then drains the deque in the first microseconds of each time
     slice and finds it empty for the rest *)
  let thief =
    Cpus.with_cpus (fun (_, second, _) -> second) @@ fun () ->
    Domain.spawn (fun () ->
        let attempts = ref 0 and wins = ref 0 in
        let t0 = Mclock.now_ns () in
        while not (Atomic.get stop) do
          incr attempts;
          match Par.Ws_deque.steal_top d with Some _ -> incr wins | None -> ()
        done;
        (Mclock.now_ns () - t0, !attempts, !wins))
  in
  Cpus.with_cpus (fun (first, _, _) -> first) @@ fun () ->
  let until = Mclock.now_s () +. secs in
  while Mclock.now_s () < until do
    if Par.Ws_deque.length d < 64 then
      for i = 1 to 256 do
        Par.Ws_deque.push_bottom d i
      done
    else
      for i = 1 to 64 do
        Par.Ws_deque.push_bottom d i;
        ignore (Par.Ws_deque.pop_bottom d)
      done
  done;
  Atomic.set stop true;
  let ns, attempts, wins = Domain.join thief in
  (float_of_int ns /. float_of_int (max 1 attempts), float_of_int wins /. float_of_int (max 1 attempts))

let session_config (domains : int) : Par.Runtime.config =
  { Par.Runtime.default_config with domains; source = `Polling }

(* [Sched.admit] then [Sched.next] at a fixed queue depth over 8
   tenants: each call adds one request and takes one out. *)
let sched_admit_next (depth : int) : unit -> unit =
  let s = Serve.Sched.create ~config:{ Serve.Sched.default_config with cap = depth + 16 } () in
  let tenants = Array.init 8 (Printf.sprintf "t%d") in
  let id = ref 0 in
  let req () =
    incr id;
    {
      Serve.Sched.id = !id;
      tenant = tenants.(!id land 7);
      deadline = 1e9;
      size = 1 + (!id mod 3);
      enqueued = 0.;
      payload = ();
    }
  in
  for _ = 1 to depth do
    ignore (Serve.Sched.admit s (req ()))
  done;
  fun () ->
    ignore (Serve.Sched.admit s (req ()));
    ignore (Serve.Sched.next s ~now:0.)

let submit_frame =
  Net.Wire.Submit
    { ticket = 12345; tenant = "t3"; deadline_us = 500_000; size = 1; payload = Net.Wire.Synth { n = 256 } }

let response_frame =
  Net.Wire.Response
    { ticket = 12345; status = Net.Wire.Done { met = true }; value = 0x5A5A5A; sojourn_us = 420; info = "" }

let decode_of (frame : Net.Wire.frame) : unit -> unit =
  let bytes = Net.Wire.encode frame in
  let dec = Net.Wire.Decoder.create () in
  fun () ->
    Net.Wire.Decoder.feed_string dec bytes;
    match Net.Wire.Decoder.next dec with `Frame _ -> () | _ -> failwith "decode failed"

let run () : metric list * (string * Json.t) list =
  let r2s = ref [] in
  let ns name f =
    let v, r2 = ols name f in
    r2s := (name, Json.Num r2) :: !r2s;
    metric name "ns" v
  in
  let dq = Par.Ws_deque.create () in
  let push_pop =
    ns "ws_deque.push_pop_ns" (fun () ->
        Par.Ws_deque.push_bottom dq 1;
        ignore (Par.Ws_deque.pop_bottom dq))
  in
  let steal_ns, steal_success = contended_steal ~secs:0.5 in
  let starts =
    Array.init 20 (fun _ -> s_of_ns (fst (time_ns (fun () -> Par.Runtime.run ~config:(session_config 2) ignore))))
  in
  let (fork2, par_for), _ =
    Par.Runtime.run ~config:(session_config 1) (fun () ->
        let f = ns "runtime.fork2_ns" (fun () -> Par.Runtime.fork2 ignore ignore) in
        let p = ns "runtime.par_for_iter_ns" (fun () -> Par.Runtime.par_for ~lo:0 ~hi:1024 ignore) in
        (f, { p with value = p.value /. 1024.; q1 = p.q1 /. 1024.; q3 = p.q3 /. 1024. }))
  in
  let ring = Obs.Ring.create () in
  let batch = Net.Batch.create ~max:8 ~delay_s:200e-6 in
  let tenant = "t5" in
  let metrics =
    [
      push_pop;
      metric "ws_deque.steal_ns" "ns" steal_ns;
      metric "ws_deque.steal_success" "ratio" steal_success;
      median_metric ~k:1e3 "runtime.session_start_ms" "ms" starts;
      fork2;
      par_for;
      ns "sched.admit_next_ns.d8" (sched_admit_next 8);
      ns "sched.admit_next_ns.d512" (sched_admit_next 512);
      ns "wire.encode_submit_ns" (fun () -> ignore (Net.Wire.encode submit_frame));
      ns "wire.decode_submit_ns" (decode_of submit_frame);
      ns "wire.encode_response_ns" (fun () -> ignore (Net.Wire.encode response_frame));
      ns "wire.decode_response_ns" (decode_of response_frame);
      ns "router.route_ns" (fun () ->
          ignore (Net.Router.route (Net.Router.Size_aware { small_max = 4 }) ~depths:[| 3; 5 |] ~tenant ~size:32));
      ns "batch.add_ns" (fun () -> ignore (Net.Batch.add batch ~now:0. 1));
      ns "obs.ring_write_ns" (fun () -> Obs.Ring.emit ring ~code:3 ~at_ns:1 ~a:2 ~b:3);
      ns "mclock.now_ns" (fun () -> ignore (Mclock.now_ns ()));
    ]
  in
  (metrics, [ ("micro_r2", Json.Obj (List.rev !r2s)) ])
