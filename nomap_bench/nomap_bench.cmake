# Adds nomap_bench to the root project without editing the root's list
# files. Configure the root with this file as its project hook:
#
#   cmake -S . -B build-bench \
#         -DCMAKE_PROJECT_nomap_INCLUDE=$PWD/nomap_bench/nomap_bench.cmake
#   cmake --build build-bench -j4 --target nomap_bench
#   ctest --test-dir build-bench -R nomap_bench
#
# CMake includes this file right after the root's project() call. The
# targets are added by a deferred call that runs once the root
# CMakeLists.txt has finished, so the benchmark is built with the root's
# dispatch and poller probes, its NOMAP_SANITIZE option and its library
# targets, and its tests join the root build's (label integration).
# run.py does the first two steps itself before each run.
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "nomap_bench needs CMake 3.19 or newer")
endif()
set(NOMAP_BENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(nomap_bench_add_targets)
    set(golden ${NOMAP_BENCH_DIR}/golden/nomap_bench.golden.txt)
    set(out ${CMAKE_BINARY_DIR}/nomap_bench)

    add_executable(nomap_bench ${NOMAP_BENCH_DIR}/nomap_bench.cc)
    target_link_libraries(nomap_bench
        PRIVATE nomap_net nomap_jit nomap_suites Threads::Threads)
    target_compile_definitions(nomap_bench
        PRIVATE NOMAP_BENCH_GOLDEN="${golden}")
    set_target_properties(nomap_bench PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${out})

    # Smoke: every workload, clipped to about a second each.
    add_test(NAME bench_smoke_nomap_bench
             COMMAND nomap_bench --workload=all --quick --out-dir=${out})
    set_tests_properties(bench_smoke_nomap_bench PROPERTIES
        LABELS integration
        TIMEOUT 300)

    # Guard: a golden file with one corrupted row must fail the run, so
    # a change that perturbs guest results or stats cannot pass silently.
    file(READ ${golden} text)
    string(FIND "${text}" " digest=" at)
    if(at LESS 0)
        message(FATAL_ERROR "nomap_bench: no digest row in ${golden}")
    endif()
    math(EXPR tail "${at} + 24")
    string(SUBSTRING "${text}" 0 ${at} head)
    string(SUBSTRING "${text}" ${tail} -1 rest)
    file(WRITE ${out}/corrupt.golden.txt "${head} digest=badbadbadbadbad0${rest}")
    set_property(DIRECTORY APPEND PROPERTY CMAKE_CONFIGURE_DEPENDS ${golden})
    add_test(NAME bench_guard_nomap_bench_golden
             COMMAND nomap_bench --workload=paper-suite --quick
                     --golden=${out}/corrupt.golden.txt --out-dir=${out})
    set_tests_properties(bench_guard_nomap_bench_golden PROPERTIES
        LABELS integration
        TIMEOUT 300
        WILL_FAIL TRUE)
endfunction()

cmake_language(DEFER CALL nomap_bench_add_targets)
