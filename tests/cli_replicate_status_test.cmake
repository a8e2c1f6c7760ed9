# Drives `falcc_cli replicate status` over two feeds built from the
# snapshot corpus seeds:
#  * a feed holding only a valid checkpoint exits 0;
#  * a feed whose second checkpoint fails to load (a section checksum
#    mismatch) exits non-zero and counts the failure in its summary,
#    instead of reporting the first checkpoint's hash as a healthy head.
#
#   cmake -DFALCC_CLI=path/to/falcc_cli -DCORPUS_DIR=tests/corpus/snapshot
#         -DWORK_DIR=path/to/work_dir -P cli_replicate_status_test.cmake

cmake_minimum_required(VERSION 3.16)

function(replicate_status dir code_var err_var)
  execute_process(
    COMMAND ${FALCC_CLI} replicate status --dir "${dir}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(${code_var} "${code}" PARENT_SCOPE)
  set(${err_var} "${out}${err}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")

# 1. Only the valid checkpoint: healthy.
set(good "${WORK_DIR}/good")
file(MAKE_DIRECTORY "${good}")
configure_file("${CORPUS_DIR}/valid-v2-pool-p1.txt"
               "${good}/00000001-checkpoint-a.falcc" COPYONLY)
replicate_status("${good}" code log)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "healthy feed: exit '${code}', want 0\n${log}")
endif()
if(NOT log MATCHES "0 load failures, 0 apply failures")
  message(FATAL_ERROR "healthy feed: unexpected summary:\n${log}")
endif()

# 2. The valid checkpoint followed by one that fails to load.
set(broken "${WORK_DIR}/broken")
file(MAKE_DIRECTORY "${broken}")
configure_file("${CORPUS_DIR}/valid-v2-pool-p1.txt"
               "${broken}/00000001-checkpoint-a.falcc" COPYONLY)
configure_file("${CORPUS_DIR}/v2-section-checksum.txt"
               "${broken}/00000002-checkpoint-b.falcc" COPYONLY)
replicate_status("${broken}" code log)
if(code EQUAL 0)
  message(FATAL_ERROR "broken feed: exit 0, want non-zero\n${log}")
endif()
if(NOT log MATCHES "2,full,[0-9]+,,load failed,")
  message(FATAL_ERROR "broken feed: sequence 2 not reported as failed:\n${log}")
endif()
if(NOT log MATCHES "1 load failures")
  message(FATAL_ERROR "broken feed: load failure not counted:\n${log}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
