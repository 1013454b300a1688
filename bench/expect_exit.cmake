# Runs one bench command line in an empty scratch directory and checks its
# exit code (and that it wrote no bench_results/): the strict-CLI ctest
# cases registered in bench/CMakeLists.txt.
#
#   cmake -DBENCH=<exe> -DARGS=<;-list> -DEXPECT=<code> -DWORKDIR=<dir>
#         -P expect_exit.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${ARGS}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE code)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit ${code}, expected ${EXPECT}")
endif()
if(EXISTS "${WORKDIR}/bench_results")
  message(FATAL_ERROR "${BENCH} ${ARGS}: ran the sweep (wrote bench_results/)")
endif()
