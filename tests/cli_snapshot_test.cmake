# Drives `falcc_cli snapshot` end to end:
#  * `inspect` of a seed copied under a directory whose name holds '"'
#    and '\' prints valid JSON whose "path" is that file's path;
#  * `verify` accepts each valid seed in the snapshot corpus, listed by
#    name so a missing seed fails by name;
#  * `verify` and `inspect` reject a v1 (`falcc-model-v1`) file with a
#    non-zero exit and the header line named on stderr;
#  * `inspect` of a freshly trained and saved snapshot lists a `pool`
#    section and no `flat` section.
#
#   cmake -DFALCC_CLI=path/to/falcc_cli -DCORPUS_DIR=tests/corpus/snapshot
#         -DWORK_DIR=path/to/work_dir -P cli_snapshot_test.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

function(run_cli out_var)
  execute_process(
    COMMAND ${FALCC_CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "falcc_cli ${ARGN}: exit '${code}'\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")

# 1. Quote and backslash in the path. CMake's own file commands read '\'
# as a path separator, so plain mkdir and cp build the directory.
set(odd_dir "${WORK_DIR}/q\"x\\y")
execute_process(COMMAND mkdir -p "${odd_dir}" RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "cannot create '${odd_dir}'")
endif()
foreach(seed valid-v2-pool-p1.txt)
  set(model "${odd_dir}/${seed}")
  execute_process(COMMAND cp "${CORPUS_DIR}/${seed}" "${model}"
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cannot copy ${seed} to '${model}'")
  endif()
  run_cli(out snapshot inspect --model "${model}")
  string(FIND "${out}" "q\\\"x\\\\y/${seed}" escaped_at)
  if(escaped_at EQUAL -1)
    message(FATAL_ERROR "inspect ${seed}: path not escaped:\n${out}")
  endif()
  string(JSON path ERROR_VARIABLE json_error GET "${out}" path)
  if(json_error)
    message(FATAL_ERROR "inspect ${seed}: not JSON (${json_error}):\n${out}")
  endif()
  if(NOT path STREQUAL model)
    message(FATAL_ERROR "inspect ${seed}: path '${path}', want '${model}'")
  endif()
endforeach()

# 2. Every valid corpus seed verifies: the listed ones must exist, and
# any other valid-*.txt seed is checked too.
set(valid_seeds valid-v2-pool-p1.txt)
file(GLOB globbed RELATIVE "${CORPUS_DIR}" "${CORPUS_DIR}/valid-*.txt")
set(seeds ${valid_seeds} ${globbed})
list(REMOVE_DUPLICATES seeds)
foreach(seed IN LISTS seeds)
  if(NOT EXISTS "${CORPUS_DIR}/${seed}")
    message(FATAL_ERROR "valid seed ${seed} is missing from ${CORPUS_DIR}")
  endif()
  run_cli(out snapshot verify --model "${CORPUS_DIR}/${seed}")
  if(NOT out MATCHES ": ok \\(")
    message(FATAL_ERROR "verify ${seed}: unexpected output:\n${out}")
  endif()
endforeach()

# 2b. A v1 file is rejected, and the error names its header line.
foreach(action verify inspect)
  execute_process(
    COMMAND ${FALCC_CLI} snapshot ${action} --model "${CORPUS_DIR}/v1-model.txt"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "snapshot ${action} accepted a v1 file:\n${out}")
  endif()
  string(FIND "${err}" "falcc-model-v1" named_at)
  if(named_at EQUAL -1)
    message(FATAL_ERROR "snapshot ${action} of a v1 file: header not named:\n${err}")
  endif()
endforeach()

# 3. A fresh save carries the pool once: no `flat` section.
run_cli(out generate --dataset compas --scale 0.1 --out "${WORK_DIR}/d.csv")
run_cli(out train --data "${WORK_DIR}/d.csv" --sensitive race
        --out "${WORK_DIR}/m.falcc")
run_cli(out snapshot inspect --model "${WORK_DIR}/m.falcc")
string(JSON num_sections LENGTH "${out}" sections)
set(names "")
math(EXPR last "${num_sections} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${out}" sections ${i} name)
  list(APPEND names "${name}")
endforeach()
if(NOT "pool" IN_LIST names OR "flat" IN_LIST names)
  message(FATAL_ERROR "fresh snapshot sections: ${names}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
