# Drives `falcc_cli replicate serve-feed`, the socket gateway over a feed
# directory:
#  * over a feed holding one valid checkpoint, a short run exits 0 and
#    prints the endpoint it resolved;
#  * a missing --listen exits non-zero;
#  * a --listen that is not a socket endpoint exits non-zero.
#
#   cmake -DFALCC_CLI=path/to/falcc_cli -DCORPUS_DIR=tests/corpus/snapshot
#         -DWORK_DIR=path/to/work_dir -P cli_serve_feed_test.cmake

cmake_minimum_required(VERSION 3.16)

function(serve_feed code_var log_var)
  execute_process(
    COMMAND ${FALCC_CLI} replicate serve-feed ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  set(${code_var} "${code}" PARENT_SCOPE)
  set(${log_var} "${out}${err}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
set(feed "${WORK_DIR}/feed")
file(MAKE_DIRECTORY "${feed}")
configure_file("${CORPUS_DIR}/valid-v2-pool-p1.txt"
               "${feed}/00000001-checkpoint-a.falcc" COPYONLY)

# 1. A short run over a valid feed.
set(endpoint "unix://${WORK_DIR}/feed.sock")
serve_feed(code log --dir "${feed}" --listen "${endpoint}" --duration-s 0.3)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve-feed: exit '${code}', want 0\n${log}")
endif()
string(FIND "${log}" "serving feed ${feed} at ${endpoint}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "serve-feed: resolved endpoint not printed:\n${log}")
endif()

# 2. No --listen.
serve_feed(code log --dir "${feed}" --duration-s 0.3)
if(code EQUAL 0)
  message(FATAL_ERROR "missing --listen: exit 0, want non-zero\n${log}")
endif()

# 3. A --listen that names a directory, not a socket endpoint.
serve_feed(code log --dir "${feed}" --listen "${WORK_DIR}/not-a-socket"
           --duration-s 0.3)
if(code EQUAL 0)
  message(FATAL_ERROR "non-socket --listen: exit 0, want non-zero\n${log}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
