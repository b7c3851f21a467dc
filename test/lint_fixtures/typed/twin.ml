let twin_value = 1
