(* Small shared pieces: clocks, order statistics, files, processes and
   line-oriented Unix sockets. *)

let now = Obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* order statistics *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* the median of an empty sample is nan, which the result printer
   reports as a failure rather than as a number *)
let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* first and third quartiles, by the nearest rank *)
let quartiles a =
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else
    let s = sorted a in
    (s.(n / 4), s.(3 * n / 4))

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest value.  Returns the value and the percentile it
   sits at, so a report can state both.  Below eleven samples the
   maximum is the best that can be said. *)
let tail a =
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else if n < 11 then ((sorted a).(n - 1), 100.)
  else
    let s = sorted a in
    (s.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* A tail per window (one pass or replay of a log), then the median
   over windows: the same percentile every run, steadier than the
   eleventh-largest of a pooled sample whose size sets how far out in
   the tail it reaches. *)
let windowed_tail windows = median (Array.of_list (List.map (fun w -> fst (tail w)) windows))

let sum a = Array.fold_left ( +. ) 0. a
let fsum l = List.fold_left ( +. ) 0. l
let ratio a b = if b = 0. then 0. else a /. b

(* requests per second of busy time in one window *)
let rate a = ratio (float_of_int (Array.length a)) (sum a)

(* ------------------------------------------------------------------ *)
(* files *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')

let write_file path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let remove path = try Sys.remove path with Sys_error _ -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* peak resident set of a live process, from /proc (MiB) *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> float_of_string kb /. 1024.
           | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' s)

(* (steal, total) jiffies of all CPUs from /proc/stat: on a virtual
   machine, the time the host gave our vCPUs to someone else *)
let cpu_steal () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map (fun f -> try int_of_string f with Failure _ -> 0) fields in
      let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
      ((match List.nth_opt v 7 with Some s -> s | None -> 0), total)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let steal_since (s0, t0) =
  let s1, t1 = cpu_steal () in
  ratio (float_of_int (s1 - s0)) (float_of_int (t1 - t0))

(* ------------------------------------------------------------------ *)
(* child processes: every pid spawned here is remembered so an abort
   path can stop them all *)

let children : int list ref = ref []

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      stderr
  in
  children := pid :: !children;
  pid

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    children := List.filter (( <> ) pid) !children;
    Unix.WEXITED 0
  | _, st ->
    children := List.filter (( <> ) pid) !children;
    st

type captured = {
  status : Unix.process_status;
  out : string;  (** everything the process wrote to stdout *)
  wall : float;  (** spawn to exit *)
  first_output : float;  (** spawn to the first byte on stdout, nan if none *)
  rss_mb : float;  (** peak resident set, read from /proc while it ran *)
}

(* Run [prog] to completion with its stdout captured.  Its peak RSS is
   the last VmHWM read before it exited; the high-water mark only
   grows, and it is read every 5 ms and on every chunk of output. *)
let run_captured ?stderr prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = spawn ~stdout:wr ?stderr prog args in
  Unix.close wr;
  let buf = Buffer.create 8192 and chunk = Bytes.create 65536 in
  let first = ref nan and rss = ref nan in
  let sample () =
    let r = peak_rss_mb pid in
    if not (Float.is_nan r) then rss := r
  in
  let rec loop () =
    match Unix.select [ rd ] [] [] 0.005 with
    | [], _, _ -> sample (); loop ()
    | _ -> (
      match Unix.read rd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        if Float.is_nan !first then first := now () -. t0;
        Buffer.add_subbytes buf chunk 0 n;
        sample ();
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  sample ();
  Unix.close rd;
  let status = waitpid pid in
  { status; out = Buffer.contents buf; wall = now () -. t0; first_output = !first; rss_mb = !rss }

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid pid))
    !children

(* ------------------------------------------------------------------ *)
(* line-oriented Unix-socket connections *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let conn_of_fd fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let rec connect ~path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> conn_of_fd fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when now () < deadline ->
    Unix.close fd;
    Unix.sleepf 0.0005;
    connect ~path ~deadline

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c line =
  let s = line ^ "\n" in
  write_all c.fd s 0 (String.length s)

(* the next complete line already buffered, if any *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

(* read once from the socket into the buffer; false on EOF *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n -> Buffer.add_subbytes c.buf c.chunk 0 n; true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec recv c =
  match take_line c with
  | Some l -> Some l
  | None -> if fill c then recv c else None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c line =
  send c line;
  match recv c with Some l -> l | None -> failwith "connection closed by the daemon"

(* ------------------------------------------------------------------ *)
(* responses *)

let json_field key line =
  match Obs.Jsonx.of_string line with
  | Ok (Obs.Jsonx.Assoc kvs) -> List.assoc_opt key kvs
  | _ -> None

let output_of line =
  match json_field "output" line with Some (Obs.Jsonx.String s) -> Some s | _ -> None

let ok_of line = json_field "ok" line = Some (Obs.Jsonx.Bool true)

let group_fields line =
  match json_field "groups" line with
  | Some (Obs.Jsonx.List gs) ->
    List.map
      (function
        | Obs.Jsonx.Assoc kvs ->
          let s k =
            match List.assoc_opt k kvs with Some (Obs.Jsonx.String v) -> v | _ -> "?"
          in
          (s "verdict", s "provenance")
        | _ -> ("?", "?"))
      gs
  | _ -> []
