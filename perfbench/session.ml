(* Talking to `cpsdim serve --socket`: spawning and stopping daemons,
   the closed-loop client and the open-loop pinger. *)

let ping_line = "{\"id\":\"setup\",\"kind\":\"ping\"}"
let shutdown_line = "{\"id\":\"bye\",\"kind\":\"shutdown\"}"

type daemon = { pid : int; path : string }

(* Spawn a daemon and time it from spawn to its first pong: the
   service's set-up cost.  The returned connection is the one that got
   the pong; the workload goes on over it. *)
let spawn ~cpsdim ~path ~log args =
  Util.remove path;
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Util.now () in
  let pid =
    Util.spawn ~stdout:err ~stderr:err cpsdim ([ "serve"; "--socket"; path ] @ args)
  in
  Unix.close err;
  let c = Util.connect ~path ~deadline:(t0 +. 60.) in
  let pong = Util.request c ping_line in
  let setup = Util.now () -. t0 in
  if Util.output_of pong <> Some "pong" then failwith ("daemon did not pong: " ^ pong);
  ({ pid; path }, c, setup)

(* peak RSS while the daemon is still alive, then a clean shutdown *)
let stop d =
  let rss = Util.peak_rss_mb d.pid in
  let c = Util.connect ~path:d.path ~deadline:(Util.now () +. 10.) in
  let bye = Util.request c shutdown_line in
  Util.close c;
  (match Util.waitpid d.pid with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith "daemon exited abnormally");
  if Util.output_of bye <> Some "bye" then failwith ("daemon did not say bye: " ^ bye);
  rss

(* one closed-loop pass: each request goes out after the previous
   answer is back *)
let pass ?(around = fun f -> f ()) c lines =
  let n = Array.length lines in
  let lat = Array.make n 0. and answers = Array.make n "" in
  let (), wall =
    Util.time (fun () ->
        Array.iteri
          (fun i line ->
            around (fun () ->
                let t0 = Util.now () in
                answers.(i) <- Util.request c line;
                lat.(i) <- Util.now () -. t0))
          lines)
  in
  (lat, answers, wall)

(* ------------------------------------------------------------------ *)
(* open-loop pinger: its own domain and its own connection, one ping
   every [interval] seconds from start until told to stop; each ping is
   timed from when it was due, so a stalled daemon charges the wait to
   every ping queued behind the stall *)

type ping_result = {
  latencies : float array;  (** answered pings in due order, seconds from due time *)
  sent : int;
  missing : int;  (** pings never answered, or answered wrong *)
  max_lag : float;  (** how late the generator itself sent a ping *)
}

type pinger = { stop_flag : bool Atomic.t; dom : ping_result Domain.t }

let start_pinger ~path ~interval =
  let stop_flag = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        let c = Util.connect ~path ~deadline:(Util.now () +. 10.) in
        let t0 = Util.now () in
        let due = Hashtbl.create 1024 and lats = ref [] in
        let sent = ref 0 and wrong = ref 0 and max_lag = ref 0. and eof = ref false in
        let drain_lines () =
          let rec go () =
            match Util.take_line c with
            | None -> ()
            | Some line ->
              (match Util.json_field "id" line with
               | Some (Obs.Jsonx.Int i) when Hashtbl.mem due i ->
                 let d = Hashtbl.find due i in
                 Hashtbl.remove due i;
                 if Util.output_of line = Some "pong" then lats := (d, Util.now () -. d) :: !lats else incr wrong
               | _ -> incr wrong);
              go ()
          in
          go ()
        in
        let wait_readable timeout =
          if timeout > 0. && not !eof then
            match Unix.select [ c.Util.fd ] [] [] timeout with
            | [], _, _ -> ()
            | _ -> if Util.fill c then drain_lines () else eof := true
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        in
        while not (Atomic.get stop_flag) do
          let next = t0 +. (float_of_int !sent *. interval) in
          let now = Util.now () in
          if now >= next then begin
            max_lag := Float.max !max_lag (now -. next);
            Hashtbl.replace due !sent next;
            Util.send c (Printf.sprintf "{\"id\":%d,\"kind\":\"ping\"}" !sent);
            incr sent
          end
          else wait_readable (Float.min (next -. now) 0.05)
        done;
        let deadline = Util.now () +. 120. in
        while Hashtbl.length due > 0 && (not !eof) && Util.now () < deadline do
          wait_readable 0.05
        done;
        Util.close c;
        {
          latencies = Array.of_list (List.map snd (List.sort compare !lats));
          sent = !sent;
          missing = Hashtbl.length due + !wrong;
          max_lag = !max_lag;
        })
  in
  { stop_flag; dom }

let finish_pinger p =
  Atomic.set p.stop_flag true;
  Domain.join p.dom
