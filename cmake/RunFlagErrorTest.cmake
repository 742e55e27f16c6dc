# Run saber_cli (${CLI_BINARY}) and saber_server (${SERVER_BINARY}) with
# integer flag values they must reject, and fail unless each run exits 2
# after printing the accepted range and the usage. A bounded timeout turns
# a tool that accepts the value and starts serving into a failure.
if(NOT DEFINED CLI_BINARY OR NOT DEFINED SERVER_BINARY)
  message(FATAL_ERROR "CLI_BINARY and SERVER_BINARY must be set")
endif()

set(sql "select timestamp, avg(a1) as load from Syn [rows 256 slide 64]")

function(expect_usage_error)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "must be an integer in \\[" OR
     NOT err MATCHES "usage:")
    message(SEND_ERROR "'${ARGN}' exited with '${rc}', want 2 with the "
                       "accepted range and the usage\nstderr:\n${err}")
  endif()
endfunction()

expect_usage_error(${CLI_BINARY} --tuples -1 ${sql})
expect_usage_error(${CLI_BINARY} --tuples 12a ${sql})
expect_usage_error(${CLI_BINARY} --workers 0 --no-gpu ${sql})
expect_usage_error(${CLI_BINARY} --no-gpu --workers 0 ${sql})
expect_usage_error(${CLI_BINARY} --task-size -1 ${sql})
expect_usage_error(${CLI_BINARY} --seed 4294967296 ${sql})
expect_usage_error(${CLI_BINARY} --connect 127.0.0.1:abc ${sql})
expect_usage_error(${SERVER_BINARY} --port abc)
expect_usage_error(${SERVER_BINARY} --port 65536)
expect_usage_error(${SERVER_BINARY} --workers 0)
expect_usage_error(${SERVER_BINARY} --task-size 18446744073709551616)
expect_usage_error(${SERVER_BINARY} --idle-timeout-ms -1)
