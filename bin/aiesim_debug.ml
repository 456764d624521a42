let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "farrow" in
  let h = Option.get (Apps.Harness.find app) in
  List.iter
    (fun adapter ->
      let d = Aiesim.Deploy.make ~label:(Aiesim.Deploy.adapter_to_string adapter) ~adapter (h.Apps.Harness.graph ()) in
      let sinks, _ = h.Apps.Harness.make_sinks () in
      let r = Aiesim.Sim.run d ~sources:(h.Apps.Harness.sources ~reps:8) ~sinks in
      Format.printf "%a@." Aiesim.Sim.pp_report r)
    [ Aiesim.Deploy.Direct; Aiesim.Deploy.Thunk Aiesim.Deploy.default_thunk ]
