# Build file of the end-to-end benchmark program, perfbench_e2e.
#
# It builds inside the repository's own top-level project, so the
# benchmark is compiled with exactly the flags and library targets the
# repository builds, and no repository build file changes. run.py
# configures the repository with
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/perfbench.cmake
# The first inclusion (right after project()) defers a second one to
# the end of the top-level CMakeLists.txt; that one, seeing every
# project-wide option and the adq_* targets, defines the program.
# (Deferred-call arguments expand when the call runs, hence the
# variable.)
if(NOT PERFBENCH_BUILD_FILE)
  set(PERFBENCH_BUILD_FILE "${CMAKE_CURRENT_LIST_FILE}")
  cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
    CALL include "${PERFBENCH_BUILD_FILE}")
  return()
endif()

add_executable(perfbench_e2e EXCLUDE_FROM_ALL
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/pipeline.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/ledger.cpp
)
target_link_libraries(perfbench_e2e PRIVATE adq_core)
find_package(Threads REQUIRED)
target_link_libraries(perfbench_e2e PRIVATE Threads::Threads)
