(* The byte kernel: each of 4 cores writes its own byte lane (byte [c] of
   every word) of a shared 16-byte object with [set8] under [entry_x],
   then reads the whole object back with [get] and [get8] under
   [entry_ro].  Values depend on the interleaving, which is
   deterministic.  The flat and trace goldens print it, and the trace
   tests replay it through the model. *)

open Pmc_sim

let cores = 4

type run = {
  machine : Machine.t;
  api : Pmc.Api.t;
  lanes : Pmc.Shared.t;
  seen : string array;  (* per core: its words, then its bytes, in hex *)
  outcome : string;     (* "ok" or the exception the run raised *)
  recorder : Pmc_trace.Recorder.t option;
}

let run ?chaos ~record backend =
  let cfg = { Config.small with cores } in
  let cfg = match chaos with None -> cfg | Some seed -> Config.chaos ~seed cfg in
  let m = Machine.create cfg in
  let api = Pmc.Backends.create backend m in
  let recorder = if record then Some (Pmc_trace.Recorder.attach api) else None in
  let o = Pmc.Api.alloc api ~name:"lanes" ~bytes:16 in
  let seen = Array.make cores "-" in
  for c = 0 to cores - 1 do
    Machine.spawn m ~core:c (fun () ->
        Pmc.Api.with_x api o (fun () ->
            for w = 0 to 3 do
              Pmc.Api.set8 api o ((4 * w) + c) ((0x10 * (c + 1)) + w)
            done);
        Pmc.Api.with_ro api o (fun () ->
            let words =
              List.init 4 (fun w -> Printf.sprintf "%08lx" (Pmc.Api.get api o w))
            in
            let bytes =
              List.init 16 (fun i -> Printf.sprintf "%02x" (Pmc.Api.get8 api o i))
            in
            seen.(c) <- String.concat "," words ^ "/" ^ String.concat "" bytes))
  done;
  let outcome =
    match Machine.run m with
    | () -> "ok"
    | exception e -> "raised " ^ Printexc.to_string e
  in
  { machine = m; api; lanes = o; seen; outcome; recorder }
