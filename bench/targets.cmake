# One google-benchmark binary per bench_*.cpp (one per paper table/figure,
# see the experiment index in DESIGN.md). Each bench provides its own main():
# it first prints the experiment's table/series (the rows the paper frames),
# then runs the microbenchmarks, and writes a schema-versioned
# BENCH_<name>.json artifact through the shared report writer below
# (diffed across commits by tools/benchdiff).
add_library(myrtus_bench_report STATIC "${CMAKE_SOURCE_DIR}/bench/report.cpp")
target_include_directories(myrtus_bench_report PUBLIC "${CMAKE_SOURCE_DIR}")
target_link_libraries(myrtus_bench_report PUBLIC myrtus_util)

file(GLOB bench_sources CONFIGURE_DEPENDS "${CMAKE_SOURCE_DIR}/bench/bench_*.cpp")

foreach(src ${bench_sources})
  get_filename_component(name ${src} NAME_WE)
  add_executable(${name} ${src})
  target_link_libraries(${name} PRIVATE myrtus myrtus_bench_report
                        benchmark::benchmark Threads::Threads)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")
endforeach()

# The MAPE churn ablation times the full-walk oracle from tests/oracle/, and
# the scale ablation and the building-blocks table its full-scan scheduler.
target_link_libraries(bench_ablation_scale PRIVATE myrtus_oracle)
target_link_libraries(bench_table1_building_blocks PRIVATE myrtus_oracle)
