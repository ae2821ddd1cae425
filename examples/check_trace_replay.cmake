# Replays a committed three-row trace whose middle request has a
# prompt above SchedLimits::maxPrefillTokens, so it can never prefill
# and, under strict-order FCFS on one instance, blocks the request
# behind it. Both must come out marked unfinished, with every metric
# that never happened left empty (not reported as a perfect result).
#
#   cmake -DREPLAY=<trace_replay> -DTRACE=<csv> -DOUT=<csv>
#         -P check_trace_replay.cmake
execute_process(COMMAND ${REPLAY} ${TRACE} ${OUT} fcfs 1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_replay exited with ${rc}")
endif()
file(STRINGS ${OUT} rows)
list(LENGTH rows n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "expected a header and 3 rows, got ${n} lines")
endif()
list(GET rows 0 header)
if(NOT header MATCHES ",finished$")
  message(FATAL_ERROR "no finished column: ${header}")
endif()
list(GET rows 1 ran)
if(NOT ran MATCHES "^0,demo,0,512,200,100,[0-9.e+-]+,[0-9.e+-]+,[0-9.e+-]+,[0-9.e+-]+,[0-9.e+-]+,[01],0,1$")
  message(FATAL_ERROR "request 0 should finish with every metric set: ${ran}")
endif()
list(GET rows 2 oversized)
if(NOT oversized STREQUAL "1,demo,0.5,20000,200,100,,,,,,,0,0")
  message(FATAL_ERROR "oversized request 1 row: ${oversized}")
endif()
list(GET rows 3 blocked)
if(NOT blocked STREQUAL "2,demo,1,512,200,100,,,,,,,0,0")
  message(FATAL_ERROR "blocked request 2 row: ${blocked}")
endif()
